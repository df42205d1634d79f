// Package lookup implements the iterative α-parallel lookup engine that
// Kademlia mandates (Maymounkov & Mazières, IPTPS 2002): the querying
// node keeps up to α probes in flight toward the contacts closest to a
// target, merges every reply's candidates into a distance-sorted
// shortlist, and terminates when the K closest responsive contacts have
// all been queried or a probe reports a terminal answer. The metric is
// pluggable; internal/kademlia runs it with XOR distance.
//
// Unlike the recursive routing both ring substrates use, the
// engine never depends on any single intermediate node: an unresponsive
// contact is marked failed, excluded from the termination window, and
// routed around, so lookups terminate even when the K closest contacts
// to the target are all dead (see TestRunAllClosestUnresponsive).
package lookup

import (
	"sort"

	"dhtindex/internal/keyspace"
)

// Contact identifies one reachable peer: its transport address and its
// position in the identifier space.
type Contact struct {
	// Addr is the peer's unique address.
	Addr string
	// ID is the peer's 160-bit identifier.
	ID keyspace.Key
}

// ProbeResult is what one probed contact reports back.
type ProbeResult struct {
	// Contacts are the probed peer's closest known candidates toward the
	// target, in any order.
	Contacts []Contact
	// Done marks a terminal answer: a FIND_VALUE hit, or a ring node
	// reporting the target's owner. The engine stops launching probes.
	Done bool
	// Value carries the terminal payload (stored entries, the owner
	// contact, ...); the engine passes it through untouched.
	Value any
}

// Config parameterizes one lookup.
type Config struct {
	// Target is the identifier being located.
	Target keyspace.Key
	// Seeds are the initial candidates (typically the querying node's
	// closest known contacts to Target).
	Seeds []Contact
	// Alpha is the number of probes kept in flight (default 3).
	Alpha int
	// K is the termination window and result-set size (default 20): the
	// lookup ends when the K closest responsive contacts were all probed.
	K int
	// MaxProbes bounds the total probes issued (default 8*K), a defensive
	// cap against adversarial candidate chains.
	MaxProbes int
	// Distance maps (contact ID, target) to the metric the shortlist is
	// sorted by; results compare with Cmp. Required.
	Distance func(id, target keyspace.Key) keyspace.Key
	// Probe queries one contact for its candidates toward target. A
	// non-nil error marks the contact unresponsive; the engine removes it
	// from the termination window and routes around it. Probes run on
	// their own goroutines — up to Alpha concurrently. Required.
	Probe func(c Contact, target keyspace.Key) (ProbeResult, error)
}

// Result reports one finished lookup.
type Result struct {
	// Closest holds the responsive probed contacts sorted by distance to
	// the target, at most K.
	Closest []Contact
	// Done is the contact whose probe returned a terminal answer, nil if
	// the lookup converged without one.
	Done *Contact
	// Value is the terminal probe's ProbeResult.Value.
	Value any
	// Probes counts the RPCs issued, Failed the ones that errored.
	Probes, Failed int
	// Hops is the longest dependency chain of successful probes — the
	// sequential routing depth an equivalent recursive lookup would have
	// walked, directly comparable to the ring substrates' hop counts.
	Hops int
}

// candidate states: unqueried, probe in flight, responded, unresponsive.
const (
	stateCandidate = iota
	stateInflight
	stateResponded
	stateFailed
)

// cand is the engine's bookkeeping for one discovered contact.
type cand struct {
	c     Contact
	dist  keyspace.Key
	state int
	depth int // probes from the origin: seeds are 1 hop away
}

// Run executes one iterative lookup to completion. It never returns
// before every launched probe has been collected, so Probe callbacks do
// not outlive the call.
func Run(cfg Config) Result {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 3
	}
	if cfg.K <= 0 {
		cfg.K = 20
	}
	if cfg.MaxProbes <= 0 {
		cfg.MaxProbes = 8 * cfg.K
	}

	byAddr := make(map[string]*cand)
	var ordered []*cand // sorted by dist ascending
	insert := func(c Contact, depth int) {
		if _, ok := byAddr[c.Addr]; ok {
			return
		}
		cd := &cand{c: c, dist: cfg.Distance(c.ID, cfg.Target), depth: depth}
		byAddr[c.Addr] = cd
		i := sort.Search(len(ordered), func(i int) bool {
			return ordered[i].dist.Cmp(cd.dist) >= 0
		})
		ordered = append(ordered, nil)
		copy(ordered[i+1:], ordered[i:])
		ordered[i] = cd
	}
	for _, s := range cfg.Seeds {
		insert(s, 1)
	}

	// next returns the closest unqueried candidate inside the termination
	// window: the K closest contacts not yet marked unresponsive.
	next := func() *cand {
		live := 0
		for _, cd := range ordered {
			if cd.state == stateFailed {
				continue
			}
			if cd.state == stateCandidate {
				return cd
			}
			live++
			if live >= cfg.K {
				return nil
			}
		}
		return nil
	}

	type reply struct {
		cd  *cand
		res ProbeResult
		err error
	}
	// Buffered to MaxProbes so a probe goroutine can always deliver its
	// reply and exit, even after the engine has stopped reading eagerly.
	replies := make(chan reply, cfg.MaxProbes)

	var out Result
	inflight := 0
	for {
		for out.Done == nil && inflight < cfg.Alpha && out.Probes < cfg.MaxProbes {
			cd := next()
			if cd == nil {
				break
			}
			cd.state = stateInflight
			inflight++
			out.Probes++
			go func(cd *cand) {
				res, err := cfg.Probe(cd.c, cfg.Target)
				replies <- reply{cd, res, err}
			}(cd)
		}
		if inflight == 0 {
			break
		}
		r := <-replies
		inflight--
		if r.err != nil {
			r.cd.state = stateFailed
			out.Failed++
			continue
		}
		r.cd.state = stateResponded
		if r.cd.depth > out.Hops {
			out.Hops = r.cd.depth
		}
		for _, c := range r.res.Contacts {
			insert(c, r.cd.depth+1)
		}
		if r.res.Done && out.Done == nil {
			done := r.cd.c
			out.Done = &done
			out.Value = r.res.Value
		}
	}

	for _, cd := range ordered {
		if cd.state != stateResponded {
			continue
		}
		out.Closest = append(out.Closest, cd.c)
		if len(out.Closest) == cfg.K {
			break
		}
	}
	return out
}
