package wire

// Ring merge: healing a split-brain partition back into one ring.
//
// A group partition amputates the ring into independent sub-rings that
// each stabilize into a consistent — but mutually invisible — overlay.
// Successor lists and fingers on each side converge to members of that
// side only, so once the network heals nothing in plain stabilization
// ever bridges the two rings again: every pointer a node repairs is
// already inside its own ring.
//
// The bridge is memory. Each node keeps a bounded set of peers it has
// ever learned about (join bootstrap, successor lists, predecessor
// reports, finger results). Every mergeProbeEvery maintenance rounds a
// node samples one known peer OUTSIDE its current view and asks it to
// locate the successor of the node's own id. In a single ring the
// answer is the node itself; any other answer proves the peer routes on
// a divergent ring, and the prober coordinates a merge:
//
//  1. Walk both rings via OpGetSuccessor to enumerate members. Abort if
//     either walk is incomplete (a node mid-churn) or the rings overlap
//     (already zipped — stabilization will finish the job).
//  2. The smaller ring rejoins through the larger: every member of the
//     smaller ring receives OpMerge naming a member of the larger ring
//     as a fresh bootstrap. Ties break toward the ring holding the
//     lexicographically smallest address so both sides pick the same
//     winner.
//  3. An OpMerge receiver re-locates its own successor through the
//     bootstrap and adopts the answer if it sits closer than its
//     current successor, then notifies it. Stabilization and the
//     anti-entropy repair loop then zip pointers and reconcile data.
//
// Probing is cheap (one lookup per probe interval) and safe: a false
// positive is impossible — a peer in the same ring always returns the
// prober itself — and a failed probe keeps the peer in the known set,
// because unreachability is exactly what a partition looks like.

import (
	"slices"

	"dhtindex/internal/telemetry"
)

// walkBound caps ring-walk length during merge coordination, so a
// corrupted successor chain cannot loop the coordinator forever.
const walkBound = 512

// MergeStats is a snapshot of a node's ring-merge counters.
type MergeStats struct {
	// Probes counts divergence probes sent to sampled known peers.
	Probes int64
	// Detected counts probes that found a divergent ring.
	Detected int64
	// Aborts counts merge coordinations abandoned (incomplete walk or
	// overlapping rings).
	Aborts int64
	// Coordinations counts merges driven to the fan-out stage.
	Coordinations int64
	// Rejoins counts OpMerge calls acknowledged by smaller-ring members.
	Rejoins int64
	// Adopts counts successors adopted while handling OpMerge.
	Adopts int64
}

// Merge accumulates another snapshot into s (for fleet-wide totals).
func (s *MergeStats) Merge(o MergeStats) {
	s.Probes += o.Probes
	s.Detected += o.Detected
	s.Aborts += o.Aborts
	s.Coordinations += o.Coordinations
	s.Rejoins += o.Rejoins
	s.Adopts += o.Adopts
}

// mergeCounters holds the per-node ring-merge telemetry.
type mergeCounters struct {
	probes        *telemetry.Counter
	detected      *telemetry.Counter
	aborts        *telemetry.Counter
	coordinations *telemetry.Counter
	rejoins       *telemetry.Counter
	adopts        *telemetry.Counter
}

func newMergeCounters() mergeCounters {
	return mergeCounters{
		probes: telemetry.NewCounter("wire_merge_probes_total",
			"Divergence probes sent to sampled known peers."),
		detected: telemetry.NewCounter("wire_merge_detected_total",
			"Probes that found a divergent ring."),
		aborts: telemetry.NewCounter("wire_merge_aborts_total",
			"Merge coordinations abandoned on incomplete walks or overlapping rings."),
		coordinations: telemetry.NewCounter("wire_merge_coordinations_total",
			"Merges driven to the rejoin fan-out stage."),
		rejoins: telemetry.NewCounter("wire_merge_rejoins_total",
			"OpMerge rejoins acknowledged by smaller-ring members."),
		adopts: telemetry.NewCounter("wire_merge_adopts_total",
			"Successors adopted while handling OpMerge."),
	}
}

func (c mergeCounters) attach(reg *telemetry.Registry) {
	reg.Attach(c.probes, c.detected, c.aborts, c.coordinations, c.rejoins, c.adopts)
}

// TombstoneStats is a snapshot of a node's deletion-record counters.
type TombstoneStats struct {
	// Created counts tombstones recorded by remove handlers.
	Created int64
	// Merged counts tombstones learned from peers (repair answers,
	// transfers, replication).
	Merged int64
	// Suppressed counts puts refused because a live tombstone covered
	// the entry.
	Suppressed int64
	// GCd counts tombstones dropped after tombstoneTTL.
	GCd int64
}

// Merge accumulates another snapshot into s (for fleet-wide totals).
func (s *TombstoneStats) Merge(o TombstoneStats) {
	s.Created += o.Created
	s.Merged += o.Merged
	s.Suppressed += o.Suppressed
	s.GCd += o.GCd
}

// tombstoneCounters holds the per-node deletion-record telemetry.
type tombstoneCounters struct {
	created    *telemetry.Counter
	merged     *telemetry.Counter
	suppressed *telemetry.Counter
	gcd        *telemetry.Counter
}

func newTombstoneCounters() tombstoneCounters {
	return tombstoneCounters{
		created: telemetry.NewCounter("wire_tombstones_created_total",
			"Tombstones recorded by remove handlers."),
		merged: telemetry.NewCounter("wire_tombstones_merged_total",
			"Tombstones learned from peers: repair answers, transfers, replication."),
		suppressed: telemetry.NewCounter("wire_tombstones_suppressed_total",
			"Puts refused because a live tombstone covered the entry."),
		gcd: telemetry.NewCounter("wire_tombstones_gcd_total",
			"Tombstones dropped after the tombstone TTL."),
	}
}

func (c tombstoneCounters) attach(reg *telemetry.Registry) {
	reg.Attach(c.created, c.merged, c.suppressed, c.gcd)
}

// notePeersLocked folds addresses into the bounded known-peers set.
// Caller holds n.mu. Peers are never removed on probe failure — during
// a partition the unreachable side is exactly the memory a later merge
// needs — only random eviction keeps the set bounded. The set is a
// sorted slice with room for one peer past the bound, so an insert and
// an eviction move strings within it and allocate nothing.
func (n *Node) notePeersLocked(addrs ...string) {
	for _, a := range addrs {
		if a == "" || a == n.addr {
			continue
		}
		i, found := slices.BinarySearch(n.known, a)
		if found {
			continue
		}
		n.known = slices.Insert(n.known, i, a)
		if len(n.known) > knownPeersMax {
			// Evict a uniformly random victim other than a, drawn by index
			// into the sorted set (n.rng keeps the choice deterministic
			// per node).
			v := n.rng.Intn(len(n.known) - 1)
			if v >= i {
				v++
			}
			n.known = slices.Delete(n.known, v, v+1)
		}
	}
}

// mergeProbe samples one known peer outside the node's current view and
// asks it to locate the successor of the node's own id. Any answer
// other than the node itself proves the peer routes on a divergent
// ring.
func (n *Node) mergeProbe() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	view := map[string]bool{n.addr: true, n.pred: true}
	for _, s := range n.succs {
		view[s] = true
	}
	for _, f := range n.fingers {
		view[f] = true
	}
	outside := make([]string, 0, len(n.known))
	for _, p := range n.known {
		if !view[p] {
			outside = append(outside, p)
		}
	}
	if len(outside) == 0 {
		n.mu.Unlock()
		return
	}
	peer := outside[n.rng.Intn(len(outside))]
	n.mu.Unlock()

	n.merge.probes.Inc()
	resp, err := n.cfg.Transport.Call(peer, Message{Op: OpFindSuccessor, Key: n.id, TTL: routeTTL})
	if err != nil || resp.Err != "" || resp.Addr == "" {
		// Unreachable or unable to answer: keep the peer — transient
		// failure is what a partition looks like from here.
		return
	}
	if resp.Addr == n.addr {
		return // same ring
	}
	n.merge.detected.Inc()
	n.coordinateMerge(resp.Addr)
}

// walkRing enumerates ring members by following OpGetSuccessor pointers
// from start. complete is true only when the walk wrapped back to
// start; a failed hop, a revisit of a non-start member (a lasso), or
// exceeding walkBound reports the partial membership with complete
// false.
func (n *Node) walkRing(start string) (members []string, complete bool) {
	seen := map[string]bool{start: true}
	members = []string{start}
	cur := start
	for hops := 0; hops < walkBound; hops++ {
		var next string
		if cur == n.addr {
			n.mu.Lock()
			next = n.succs[0]
			n.mu.Unlock()
		} else {
			resp, err := n.cfg.Transport.Call(cur, Message{Op: OpGetSuccessor})
			if err != nil || resp.Addr == "" {
				return members, false
			}
			next = resp.Addr
		}
		if next == start {
			return members, true
		}
		if seen[next] {
			return members, false // lasso: the chain loops past start
		}
		seen[next] = true
		members = append(members, next)
		cur = next
	}
	return members, false
}

// coordinateMerge walks the local ring and the foreign ring (reached at
// foreign) and rejoins the smaller ring's members through the larger
// ring. Aborts when either walk is incomplete or the rings share a
// member — both mean the overlay is mid-churn and a later probe will
// retry from a cleaner state.
func (n *Node) coordinateMerge(foreign string) {
	mine, okMine := n.walkRing(n.addr)
	theirs, okTheirs := n.walkRing(foreign)
	if !okMine || !okTheirs {
		n.merge.aborts.Inc()
		return
	}
	mineSet := make(map[string]bool, len(mine))
	for _, m := range mine {
		mineSet[m] = true
	}
	for _, m := range theirs {
		if mineSet[m] {
			n.merge.aborts.Inc()
			return // already zipping; stabilization finishes the job
		}
	}
	smaller, larger := theirs, mine
	if len(mine) < len(theirs) ||
		(len(mine) == len(theirs) && slices.Min(theirs) < slices.Min(mine)) {
		smaller, larger = mine, theirs
	}
	n.merge.coordinations.Inc()
	for i, m := range smaller {
		boot := larger[i%len(larger)]
		if m == n.addr {
			if n.rejoinVia(boot) {
				n.merge.rejoins.Inc()
			}
			continue
		}
		resp, err := n.cfg.Transport.Call(m, Message{Op: OpMerge, Addr: boot})
		if err == nil && resp.Ok {
			n.merge.rejoins.Inc()
		}
	}
	// Remember the far side so follow-up probes can verify convergence.
	n.mu.Lock()
	n.notePeersLocked(larger...)
	n.notePeersLocked(smaller...)
	n.mu.Unlock()
}

// handleMerge rejoins this node through the bootstrap named in the
// request: the overlay equivalent of a fresh Join, minus Join's pull
// (the repair exchange reconciles data once pointers zip).
func (n *Node) handleMerge(req Message) Message {
	if n.rejoinVia(req.Addr) {
		return Message{Op: OpMerge, Ok: true}
	}
	return Message{Op: OpMerge, Ok: false}
}

// rejoinVia locates this node's successor through boot and adopts the
// answer if it sits strictly closer than the current successor (or the
// node is alone). The adopted successor is then notified so its
// predecessor pointer — and the rest of the zip — follows by
// stabilization. The notify moves no keys: each node's repair round,
// fired by its changed successor or predecessor, pulls its range once
// the pointers zip.
func (n *Node) rejoinVia(boot string) bool {
	if boot == "" || boot == n.addr {
		return false
	}
	resp, err := n.cfg.Transport.Call(boot, Message{Op: OpFindSuccessor, Key: n.id, TTL: routeTTL})
	if err != nil || resp.Err != "" || resp.Addr == "" || resp.Addr == n.addr {
		return false
	}
	cand := resp.Addr
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return false
	}
	cur := n.succs[0]
	adopt := cur == n.addr || n.peerID(cand).Between(n.id, n.peerID(cur)) && cand != cur
	if adopt {
		n.succs[0] = cand
		n.merge.adopts.Inc()
	}
	n.notePeersLocked(boot, cand)
	n.mu.Unlock()
	// Notify even without an adoption: the far successor must learn a
	// closer predecessor might exist on this side.
	_, _ = n.cfg.Transport.Call(cand, Message{Op: OpNotify, Addr: n.addr})
	return true
}
