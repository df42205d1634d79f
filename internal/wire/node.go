package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/telemetry"
)

// Protocol constants of a live node. Like K and α in a Kademlia node,
// they are properties of the protocol, not of a deployment.
const (
	// succListLen bounds the successor list. A node steps over up to
	// succListLen-1 successors that die at once; losing the whole list
	// refills it from known peers (advanceSuccessor).
	succListLen = 4
	// routeTTL bounds recursive routing: the hop budget stamped on every
	// FindSuccessor lookup and on routed cluster RPCs (the owner-addressed
	// single-key and batched operations). Generous enough for any
	// realistic ring's finger-table routing, small enough to kill a
	// routing loop fast.
	routeTTL = 64
	// fingerFixesPerRound is the number of finger-table entries refreshed
	// per stabilize round: the table has keyspace.Bits = 160 slots, so
	// the whole table is swept every 10 rounds.
	fingerFixesPerRound = 16
	// tombstoneTTL is how long deletion records are kept before garbage
	// collection. It must exceed the longest partition or node downtime
	// after which a stale copy can reappear, or a healed replica may
	// resurrect a removed entry (DESIGN.md §15).
	tombstoneTTL = 5 * time.Minute
	// knownPeersMax bounds the node's known-peers set — addresses gleaned
	// from successor lists, notifies, fingers and joins, kept beyond the
	// node's current ring view so a split ring still remembers the other
	// side.
	knownPeersMax = 64
	// mergeProbeEvery is the number of stabilize rounds between cross-ring
	// merge probes: each probe samples one known peer outside the node's
	// current view and asks it to locate this node's own id; an answer
	// other than this node means the peer is on a divergent ring and a
	// merge is coordinated.
	mergeProbeEvery = 8
)

// Config parameterizes a live node.
type Config struct {
	// Transport moves messages (required).
	Transport Transport
	// Addr is the listen address; "mem:0" / "127.0.0.1:0" pick fresh ones.
	Addr string
	// StabilizeInterval is the period of the stabilize / fix-fingers /
	// check-predecessor loops. Default 25ms (tests); production would use
	// seconds.
	StabilizeInterval time.Duration
	// ReplicationFactor is the number of successor replicas that receive
	// copies of each stored entry. Replica sets are continuously
	// re-derived from the current ring by the anti-entropy repair loop,
	// so data survives crashes once the ring re-stabilizes. The same
	// value sizes the Cluster's read failover width, so reads always
	// probe exactly the set writes fan out to.
	//
	// The zero value is the paper's unreplicated model, kept on purpose
	// (DESIGN.md §25): each key lives on its owner alone, and a crashed
	// owner's keys are gone — a read of one gets an empty success.
	// examples/live runs it. Keys still move there as at any R: the
	// owner pulls its range from its successor by repair exchange, and
	// the old holder drops its copy in its next repair round, once the
	// owner has acked it (DESIGN.md §27, §29).
	ReplicationFactor int
	// RepairEvery is the number of stabilize rounds between anti-entropy
	// repair rounds (default 4), the only way keys move between
	// neighbours (DESIGN.md §29). A round also fires at once when the
	// successor changes or a new predecessor is known (tick).
	RepairEvery int
	// Retry, when set, wraps Transport in a RetryingTransport so every
	// RPC this node issues (stabilization, routing, hand-offs) retries
	// transient failures per the policy before a peer is declared dead.
	Retry *RetryPolicy
	// SuccFailThreshold is the number of consecutive failed stabilize
	// contacts before the immediate successor is amputated from the
	// successor list (default 1: amputate on first failure, the
	// pre-retry behaviour). Raise it so a slow peer — one that fails
	// even its retried RPC once — is distinguished from a dead one.
	SuccFailThreshold int
	// Admission, when set, bounds the work this node accepts: requests
	// beyond the inflight and queue limits are NACKed with ErrOverload
	// instead of queueing without bound. Nil disables admission control
	// (every request is served, the pre-overload-protection behaviour).
	Admission *AdmissionConfig
	// Store is the node's local entry store (default: a ShardedStore of
	// DefaultStoreStripes MemStores). Pass a durable store
	// (internal/wire/durable) to make the node's state survive restarts:
	// re-open the same directory, Start with the same Addr — the ring ID
	// is derived from it — and Join; the anti-entropy repair loop
	// reconciles whatever was missed while down. The node assumes
	// ownership and closes the store on Stop/Leave.
	Store Store
}

func (c Config) withDefaults() Config {
	if c.StabilizeInterval == 0 {
		c.StabilizeInterval = 25 * time.Millisecond
	}
	if c.SuccFailThreshold == 0 {
		c.SuccFailThreshold = 1
	}
	if c.RepairEvery == 0 {
		c.RepairEvery = 4
	}
	// A nil Store becomes the default striped MemStore in Start
	// (asConcurrentStore); withDefaults leaves it alone so Start can
	// tell "defaulted" from "supplied" when wrapping.
	return c
}

// Node is a live Chord peer: it serves protocol requests and runs
// background stabilization until stopped.
type Node struct {
	cfg  Config
	addr string
	id   keyspace.Key

	retry  *RetryingTransport // non-nil iff cfg.Retry was set
	admit  *admission         // non-nil iff cfg.Admission was set
	repair repairCounters
	merge  mergeCounters
	tomb   tombstoneCounters
	// ownerForwards counts owner-addressed requests this node forwarded
	// because the key was foreign (forwardForeign).
	ownerForwards *telemetry.Counter
	// getUnchanged counts conditional gets answered CodeUnchanged.
	getUnchanged *telemetry.Counter
	// digestsResolved and digestsUnresolved count the digests of remove
	// requests this node settled — it removed the one live entry a digest
	// named, or planted the digest's tombstone — and those two or more
	// live entries answered, which it listed back for a whole re-send
	// (DESIGN.md §44, §46).
	digestsResolved, digestsUnresolved *telemetry.Counter
	// adoptions counts successors adopted by stabilize walk steps; hints
	// counts predecessors taken from a notify reply (DESIGN.md §23).
	adoptions, hints *telemetry.Counter

	// mu guards ROUTING state only: ring pointers, fingers, the
	// known-peers set and lifecycle flags. The data store is NOT under
	// it — store synchronizes itself (ConcurrentStore, see sharded.go),
	// so concurrent gets, digest scans and mutators stop contending
	// with routing and with each other. Compound read-modify-write
	// sections over one key's state go through store.Update.
	mu        sync.Mutex
	pred      string
	succs     []string // succs[0] is the immediate successor (never empty)
	succFails int      // consecutive failed stabilize contacts of succs[0]
	refilled  bool     // succs was refilled from known peers; no successor has answered since
	fingers   [keyspace.Bits]string
	fingerIdx int
	known     []string   // bounded known-peers set, sorted (merge probing, list refill)
	rng       *rand.Rand // seeded from the node id: probe sampling, eviction
	stopped   bool
	leftTo    string // peer that accepted the Leave hand-off

	// store is the node's synchronized data plane (not guarded by mu).
	store ConcurrentStore

	peerIDs     sync.Map // addr string -> keyspace.Key (peerID's memo)
	peerIDCount atomic.Int64

	listener io.Closer
	stop     chan struct{}
	done     sync.WaitGroup
}

// idOf derives a peer's ring position from its address (SHA-1), so
// identifiers never need to travel on the wire.
func idOf(addr string) keyspace.Key { return keyspace.NewKey(addr) }

// maxPeerIDs bounds a node's peerID memo under unending churn.
const maxPeerIDs = 4096

// peerID is idOf memoised per node. Routing compares the positions of
// the same few learned addresses (predecessor, successors, fingers) on
// every request, so each is hashed once instead of once per comparison.
// The memo is emptied when it outgrows maxPeerIDs.
func (n *Node) peerID(addr string) keyspace.Key {
	if id, ok := n.peerIDs.Load(addr); ok {
		return id.(keyspace.Key)
	}
	id := idOf(addr)
	if n.peerIDCount.Add(1) > maxPeerIDs {
		n.peerIDs.Range(func(k, _ any) bool { n.peerIDs.Delete(k); return true })
		n.peerIDCount.Store(1)
	}
	n.peerIDs.Store(addr, id)
	return id
}

// Start listens and begins the maintenance loops. The node starts as a
// one-node ring; call Join to enter an existing one.
func Start(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil {
		return nil, fmt.Errorf("wire: nil transport")
	}
	n := &Node{
		cfg:    cfg,
		store:  asConcurrentStore(cfg.Store),
		stop:   make(chan struct{}),
		repair: newRepairCounters(),
		merge:  newMergeCounters(),
		tomb:   newTombstoneCounters(),
		ownerForwards: telemetry.NewCounter("wire_owner_forwards_total",
			"Owner-addressed single-key requests forwarded to the routed owner because the key was foreign."),
		getUnchanged: telemetry.NewCounter("wire_get_unchanged_total",
			"Conditional gets answered \"unchanged\", batched keys included: the key's set had the digest the client offered, so no entries were shipped."),
		digestsResolved: telemetry.NewCounter("wire_remove_digests_resolved_total",
			"Digests of remove batches or their replication that this node settled: it removed the one live entry under the key with that digest, or, holding none, planted the digest's tombstone."),
		digestsUnresolved: telemetry.NewCounter("wire_remove_digests_unresolved_total",
			"Digests of remove requests that two or more live entries under the key answer, listed back for the sender to re-send whole."),
		adoptions: telemetry.NewCounter("wire_stabilize_adoptions_total",
			"Successors adopted by stabilize walk steps."),
		hints: telemetry.NewCounter("wire_predecessor_hints_total",
			"Predecessors taken from a notify reply."),
		known: make([]string, 0, knownPeersMax+1),
	}
	if cfg.Retry != nil {
		n.retry = NewRetryingTransport(cfg.Transport, *cfg.Retry)
		n.cfg.Transport = n.retry
	}
	handler := Handler(n.handle)
	if cfg.Admission != nil {
		n.admit = newAdmission(*cfg.Admission)
		handler = n.admit.wrap(handler)
	}
	addr, closer, err := cfg.Transport.Listen(cfg.Addr, handler)
	if err != nil {
		return nil, err
	}
	n.addr = addr
	n.id = idOf(addr)
	n.listener = closer
	n.succs = []string{addr}
	// Seed from the node id so merge-probe sampling is deterministic per
	// address — soak schedules replay exactly across runs.
	n.rng = rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(n.id[:8]))))
	n.done.Add(1)
	go n.maintenanceLoop()
	return n, nil
}

// Addr returns the node's bound address.
func (n *Node) Addr() string { return n.addr }

// ID returns the node's ring identifier.
func (n *Node) ID() keyspace.Key { return n.id }

// Join enters the ring that bootstrap belongs to. The answer to the
// lookup may be a stale successor; the prompt stabilize round walks back
// from it to the true one, notifies it and takes the predecessor it
// displaced, so joins made back to back leave every predecessor right
// and every successor one round from right (DESIGN.md §23). The repair
// exchange then pulls the range that predecessor bounds, so the joiner
// holds its keys when Join returns (DESIGN.md §29).
func (n *Node) Join(bootstrap string) error {
	resp, err := n.cfg.Transport.Call(bootstrap, Message{
		Op: OpFindSuccessor, Key: n.id, TTL: routeTTL,
	})
	if err != nil {
		return fmt.Errorf("wire: join via %s: %w", bootstrap, err)
	}
	if err := remoteError(resp); err != nil {
		return err
	}
	n.mu.Lock()
	n.succs = []string{resp.Addr}
	n.notePeersLocked(bootstrap, resp.Addr)
	n.mu.Unlock()
	n.stabilizeOnce() // prompt: notify the successor, take the predecessor it displaced
	n.syncReplicas()  // pull the range
	return nil
}

// Stop halts the maintenance loops and the listener. The node's keys stay
// wherever they are; use Leave for a graceful departure.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	close(n.stop)
	n.done.Wait()
	_ = n.listener.Close()
	_ = n.store.Close()
}

// Leave transfers this node's keys to the first reachable entry of its
// successor list (or, past a dead list, the nearest reachable known
// peer) and stops. The ring self-heals around the departure via
// successor lists. HandedOffTo reports which peer accepted the keys.
//
// The maintenance loop is halted BEFORE the hand-off: a repair round
// racing with the transfer could pull the just-transferred keys back
// from the successor and take them to the grave.
func (n *Node) Leave() error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	n.stopped = true
	n.mu.Unlock()
	close(n.stop)
	n.done.Wait()

	n.mu.Lock()
	succs := append(slices.Clone(n.succs), n.nextKnownLocked(n.succs)...)
	n.mu.Unlock()
	// The maintenance loop is already down; handlers may still race a
	// straggling replica write, which the next owner's repair loop
	// reconciles like any other late copy.
	kv := n.snapshot(func(keyspace.Key) bool { return true })
	var handoffErr error
	if len(kv) > 0 {
		// The immediate successor may be dead too — that can be exactly
		// why this node is leaving — and so may a whole list that has not
		// caught up with churn. Walk the successor list, then the known
		// peers that follow this node, until a peer accepts; any live node
		// is a valid next holder, and the repair drop forwards the keys on
		// to their owners.
		for _, succ := range succs {
			if succ == n.addr {
				continue
			}
			resp, err := n.cfg.Transport.Call(succ, Message{Op: OpTransfer, KV: kv})
			if err == nil {
				err = remoteError(resp)
			}
			if err != nil {
				handoffErr = fmt.Errorf("wire: leave handoff to %s: %w", succ, err)
				continue
			}
			n.mu.Lock()
			n.leftTo = succ
			n.mu.Unlock()
			handoffErr = nil
			break
		}
	}
	_ = n.listener.Close()
	_ = n.store.Close()
	return handoffErr
}

// HandedOffTo returns the peer that accepted this node's keys during
// Leave ("" if the node has not left, held no keys, or no peer accepted).
func (n *Node) HandedOffTo() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leftTo
}

// maintenanceLoop runs a maintenance round every StabilizeInterval
// until stopped.
func (n *Node) maintenanceLoop() {
	defer n.done.Done()
	ticker := time.NewTicker(n.cfg.StabilizeInterval)
	defer ticker.Stop()
	var m maintenance
	for {
		select {
		case <-ticker.C:
			n.tick(&m)
		case <-n.stop:
			return
		}
	}
}

// maintenance is what one round carries to the next: the round count,
// and the pointers the last repair round saw.
type maintenance struct {
	round              int
	lastSucc, lastPred string
}

// tick runs one maintenance round, on the node's ticker or driven by
// MemRing.Settle: stabilize, check the predecessor, fix fingers, a merge
// probe every mergeProbeEvery rounds, then repair — on cadence, and at
// once when the successor changed (a join, or a failover promotion,
// must become readable) or a new predecessor is known (its range must
// be pulled).
func (n *Node) tick(m *maintenance) {
	n.stabilizeOnce()
	n.checkPredecessor()
	n.fixFingers()
	m.round++
	if m.round%mergeProbeEvery == 0 {
		n.mergeProbe()
	}
	succ, pred := n.Successor(), n.Predecessor()
	if succ != m.lastSucc || (pred != m.lastPred && pred != "") || m.round%n.cfg.RepairEvery == 0 {
		m.lastSucc, m.lastPred = succ, pred
		n.repairOnce()
	}
	if m.round%n.cfg.RepairEvery == 0 {
		n.gcTombstones()
	}
}

// gcTombstones collects deletion records older than tombstoneTTL.
func (n *Node) gcTombstones() {
	cutoff := time.Now().Add(-tombstoneTTL).UnixNano()
	collected, err := n.store.GCTombstones(cutoff)
	if err == nil && collected > 0 {
		n.tomb.gcd.Add(int64(collected))
	}
}

// stabilizeOnce runs one round of the Chord stabilize protocol: verify the
// successor, walk back to the closest node between us and it, notify
// that node, and refresh the successor list.
//
// The walk is Chord's step repeated within the round: while the
// successor's predecessor lies strictly between this node and the
// successor, it becomes the successor. A candidate is adopted only once
// it has answered its own OpGetPredecessor, so a stale pointer to a dead
// node never displaces a live successor, and walkBound caps the steps.
// On a converged ring the first answer names this node, and the round
// costs OpGetPredecessor, OpNotify and OpGetSuccessor (DESIGN.md §23).
func (n *Node) stabilizeOnce() {
	n.mu.Lock()
	succ := n.succs[0]
	pred := n.pred
	n.mu.Unlock()

	if succ == n.addr {
		// Alone, yet holding a predecessor: the successor list emptied
		// after the notify that set it (handleNotify closes a two-node
		// ring itself). Take the predecessor back as successor.
		if pred != "" && pred != n.addr {
			n.mu.Lock()
			n.succs[0] = pred
			n.mu.Unlock()
		}
		return
	}

	resp, err := n.cfg.Transport.Call(succ, Message{Op: OpGetPredecessor})
	if err != nil {
		// An overloaded successor is alive — it answered, just with a
		// shed. Amputating it would route around a node that is merely
		// busy, piling its keys onto neighbors and making the hot spot
		// worse. Only connectivity failures count toward amputation.
		if !errors.Is(err, ErrOverload) {
			n.succFailed()
		}
		return
	}
	first := succ
	for step := 0; step < walkBound; step++ {
		x := resp.Addr
		n.mu.Lock()
		n.notePeersLocked(x)
		n.mu.Unlock()
		if x == "" || x == n.addr || !n.peerID(x).BetweenOpen(n.id, n.peerID(succ)) {
			break
		}
		// A node slipped in between us and our successor.
		xresp, err := n.cfg.Transport.Call(x, Message{Op: OpGetPredecessor})
		if err != nil {
			break
		}
		succ, resp = x, xresp
		n.adoptions.Inc()
	}
	if succ != first {
		n.mu.Lock()
		n.succs[0] = succ
		n.mu.Unlock()
	}

	// Notify the successor. It moves pointers only; keys move by repair.
	nresp, err := n.cfg.Transport.Call(succ, Message{Op: OpNotify, Addr: n.addr})
	if err != nil {
		if !errors.Is(err, ErrOverload) {
			n.succFailed()
		}
		return
	}
	n.mu.Lock()
	n.succFails, n.refilled = 0, false // the successor answered; it is alive
	if h := nresp.Addr; h != "" && h != n.addr && n.pred == "" {
		// The successor took us as its predecessor and named the one we
		// displaced, which precedes us: our predecessor, provisionally —
		// checkPredecessor verifies it, and a closer notifier replaces
		// it. It bounds the range the repair exchange pulls.
		n.pred = h
		n.hints.Inc()
	}
	n.mu.Unlock()

	// Refresh the successor list from the successor's view.
	sresp, err := n.cfg.Transport.Call(succ, Message{Op: OpGetSuccessor})
	if err != nil {
		return
	}
	list := append([]string{succ}, sresp.Addrs...)
	if len(list) > succListLen {
		list = list[:succListLen]
	}
	n.mu.Lock()
	n.succs = list
	n.notePeersLocked(sresp.Addrs...)
	n.mu.Unlock()
}

// succFailed records a failed stabilize contact of the immediate
// successor and amputates it once the consecutive-failure count reaches
// the suspicion threshold. With an RPC retry policy in place a single
// failure already means "retries exhausted"; the threshold adds a second
// chance across stabilize rounds so a transiently slow peer is not
// mistaken for a dead one.
func (n *Node) succFailed() {
	n.mu.Lock()
	n.succFails++
	trip := n.succFails >= n.cfg.SuccFailThreshold
	n.mu.Unlock()
	if trip {
		n.advanceSuccessor()
	}
}

// advanceSuccessor promotes the next live entry of the successor list
// after the immediate successor failed.
func (n *Node) advanceSuccessor() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.succFails = 0
	if len(n.succs) > 1 {
		n.succs = n.succs[1:]
		return
	}
	// The whole successor list is dead. Refill it, once until a successor
	// answers again, with the known peers that follow this node: the
	// nearest live one is the true successor, or lies past it, and the
	// stabilize walk steps back from there.
	if !n.refilled {
		n.refilled = true
		if next := n.nextKnownLocked(n.succs); len(next) > 0 {
			n.succs = next
			return
		}
	}
	// Before collapsing to a one-node ring, fall back to the live
	// predecessor: stabilizing against it walks the predecessor chain
	// back around the ring. The walk stops at the first node whose
	// predecessor died, so when another node died elsewhere on the ring
	// it can close a separate ring there — hence the refill first. (The
	// predecessor is known-live — checkPredecessor clears dead ones — and
	// using a stale entry only costs another advance round.)
	if n.pred != "" && n.pred != n.addr && n.pred != n.succs[0] {
		n.succs = []string{n.pred}
		return
	}
	n.succs = []string{n.addr}
}

// nextKnownLocked lists up to succListLen known peers, other than skip,
// in ring order from this node. Caller holds n.mu.
func (n *Node) nextKnownLocked(skip []string) []string {
	var out []string
	for _, p := range n.known {
		if !slices.Contains(skip, p) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return n.peerID(out[i]).BetweenOpen(n.id, n.peerID(out[j])) })
	return out[:min(len(out), succListLen)]
}

// checkPredecessor clears a dead predecessor — a hinted one included —
// so Notify can replace it.
func (n *Node) checkPredecessor() {
	n.mu.Lock()
	pred := n.pred
	n.mu.Unlock()
	if pred == "" {
		return
	}
	if _, err := n.cfg.Transport.Call(pred, Message{Op: OpPing}); err != nil && !errors.Is(err, ErrOverload) {
		n.mu.Lock()
		if n.pred == pred {
			n.pred = ""
		}
		n.mu.Unlock()
	}
}

// fixFingers repairs fingerFixesPerRound finger-table entries,
// round-robin.
func (n *Node) fixFingers() {
	for i := 0; i < fingerFixesPerRound; i++ {
		n.mu.Lock()
		idx := n.fingerIdx
		n.fingerIdx = (n.fingerIdx + 1) % keyspace.Bits
		n.mu.Unlock()
		target := n.id.Add(uint(idx))
		resp := n.route(target)
		if resp.Err != "" {
			continue
		}
		n.mu.Lock()
		n.fingers[idx] = resp.Addr
		n.notePeersLocked(resp.Addr)
		n.mu.Unlock()
	}
}

// adoptKeys stores transferred entries, each key as one critical section
// (store.Update) running adopt. The first store failure is returned once
// every item has been tried: a durable store that cannot append its WAL
// must not silently ack a transfer, or the sender would drop its only
// copy.
func (n *Node) adoptKeys(kv []KeyEntries) error {
	var firstErr error
	for _, item := range kv {
		err := n.store.Update(item.Key, func(s Store) error { return n.adopt(s, item) })
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// adopt merges item into s under the key's critical section, honoring
// tombstones both ways: the item's tombstones are entombed first (each
// kills its live entry), and an entry a local tombstone covers is
// refused — a stale copy must not resurrect a removal. It returns the
// first store failure once every tombstone and entry has been tried.
func (n *Node) adopt(s Store, item KeyEntries) (uerr error) {
	if len(item.Tombs) > 0 {
		fresh, err := s.Entomb(item.Key, item.Tombs)
		uerr = err
		n.tomb.merged.Add(int64(fresh))
	}
	for _, e := range item.Entries {
		added, err := s.Put(item.Key, e)
		if err != nil && uerr == nil {
			uerr = err
		}
		if !added && err == nil && s.Tombstoned(item.Key, e) {
			n.tomb.suppressed.Inc()
		}
	}
	return uerr
}

// Snapshot support for tests and diagnostics.

// Successor returns the node's current immediate successor.
func (n *Node) Successor() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.succs[0]
}

// Predecessor returns the node's current predecessor ("" if unknown).
func (n *Node) Predecessor() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pred
}

// Successors returns a copy of the node's successor list.
func (n *Node) Successors() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.succs)
}

// RetryStats returns the node's RPC retry counters (zero if the node was
// started without a retry policy).
func (n *Node) RetryStats() RetryStats {
	if n.retry == nil {
		return RetryStats{}
	}
	return n.retry.Stats()
}

// BreakerStats returns the node's circuit-breaker counters (zero when no
// retry policy, or a policy without a breaker, is configured).
func (n *Node) BreakerStats() BreakerStats {
	if n.retry == nil {
		return BreakerStats{}
	}
	return n.retry.BreakerStats()
}

// AdmissionStats returns the node's admission-control counters (zero if
// the node was started without an AdmissionConfig).
func (n *Node) AdmissionStats() AdmissionStats {
	if n.admit == nil {
		return AdmissionStats{}
	}
	return n.admit.stats()
}

// RepairStats returns the node's anti-entropy repair counters.
func (n *Node) RepairStats() RepairStats {
	return RepairStats{
		Rounds:   n.repair.rounds.Value(),
		Syncs:    n.repair.syncs.Value(),
		Pulls:    n.repair.pulls.Value(),
		Pushes:   n.repair.pushes.Value(),
		Forwards: n.repair.forwards.Value(),
		Drops:    n.repair.drops.Value(),
	}
}

// MergeStats returns the node's ring-merge counters.
func (n *Node) MergeStats() MergeStats {
	return MergeStats{
		Probes:        n.merge.probes.Value(),
		Detected:      n.merge.detected.Value(),
		Aborts:        n.merge.aborts.Value(),
		Coordinations: n.merge.coordinations.Value(),
		Rejoins:       n.merge.rejoins.Value(),
		Adopts:        n.merge.adopts.Value(),
	}
}

// TombstoneStats returns the node's deletion-record counters.
func (n *Node) TombstoneStats() TombstoneStats {
	return TombstoneStats{
		Created:    n.tomb.created.Value(),
		Merged:     n.tomb.merged.Value(),
		Suppressed: n.tomb.suppressed.Value(),
		GCd:        n.tomb.gcd.Value(),
	}
}

// KnownPeers returns a copy of the node's bounded known-peers set (the
// addresses merge probes sample from).
func (n *Node) KnownPeers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.known)
}

// Instrument attaches the node's retry and repair counters to reg. All
// nodes of a fleet may attach to one registry: the snapshot reports
// fleet-wide sums while RetryStats/RepairStats stay per-node.
func (n *Node) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	n.repair.attach(reg)
	n.merge.attach(reg)
	n.tomb.attach(reg)
	reg.Attach(n.ownerForwards, n.getUnchanged, n.digestsResolved, n.digestsUnresolved, n.adoptions, n.hints)
	if n.retry != nil {
		n.retry.Instrument(reg)
	}
	if n.admit != nil {
		n.admit.instrument(reg)
	}
	if is, ok := n.store.(InstrumentedStore); ok {
		is.Instrument(reg)
	}
}

// KeyCount returns the number of distinct keys stored locally.
func (n *Node) KeyCount() int { return n.store.Len() }
