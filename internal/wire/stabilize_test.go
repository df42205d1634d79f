package wire

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// idleNodes starts count nodes whose maintenance never ticks within a
// test, so every stabilize round is one the test runs by hand. It
// returns them in ring order (ascending id).
func idleNodes(t *testing.T, transport func() Transport, count int) []*Node {
	t.Helper()
	return idleNodesAt(t, transport, count, 0)
}

// idleNodesAt is idleNodes at replication factor rf.
func idleNodesAt(t *testing.T, transport func() Transport, count, rf int) []*Node {
	t.Helper()
	nodes := make([]*Node, count)
	for i := range nodes {
		n, err := Start(Config{Transport: transport(), Addr: "mem:0", StabilizeInterval: time.Hour, ReplicationFactor: rf})
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		t.Cleanup(n.Stop)
		nodes[i] = n
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id.Cmp(nodes[j].id) < 0 })
	return nodes
}

// burstJoin joins every node but the first back to back through the
// first, with no stabilize round in between — the way the benchmark and
// the storm harness boot a ring.
func burstJoin(t *testing.T, nodes []*Node) {
	t.Helper()
	boot := nodes[0].Addr()
	for i, n := range nodes[1:] {
		if err := n.Join(boot); err != nil {
			t.Fatalf("join node %d: %v", i+1, err)
		}
	}
}

// stabilizeRound runs one manual stabilize round: every node once, in a
// seeded shuffled order.
func stabilizeRound(nodes []*Node, seed int64) {
	order := slices.Clone(nodes)
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, n := range order {
		n.stabilizeOnce()
	}
}

// ringErr names the first node of ring (in ring order) whose successor
// or predecessor is not its ideal neighbour.
func ringErr(ring []*Node) error {
	for i, n := range ring {
		succ, pred := ring[(i+1)%len(ring)], ring[(i+len(ring)-1)%len(ring)]
		if got := n.Successor(); got != succ.Addr() {
			return fmt.Errorf("node %d (%s): successor %s, want %s", i, n.Addr(), got, succ.Addr())
		}
		if got := n.Predecessor(); got != pred.Addr() {
			return fmt.Errorf("node %d (%s): predecessor %s, want %s", i, n.Addr(), got, pred.Addr())
		}
	}
	return nil
}

// TestBurstJoinConvergesInOneRound: after a back-to-back join burst one
// stabilize round, in any order, leaves every successor and predecessor
// ideal. Chord's one step per round needs on the order of N/2 rounds
// here; the walk back along the predecessor chain takes them all in one.
func TestBurstJoinConvergesInOneRound(t *testing.T) {
	for _, count := range []int{64, 512} {
		t.Run(fmt.Sprint(count), func(t *testing.T) {
			mt := NewMemTransport()
			ring := idleNodes(t, func() Transport { return mt }, count)
			// Join in start order, not ring order: the burst's bootstrap
			// and joiners fall anywhere on the ring.
			burstJoin(t, startOrder(ring))
			stabilizeRound(ring, int64(count))
			if err := ringErr(ring); err != nil {
				t.Fatalf("one round after a %d-node join burst: %v", count, err)
			}
			var adoptions, hints int64
			for _, n := range ring {
				adoptions += n.adoptions.Value()
				hints += n.hints.Value()
			}
			if hints != int64(count-1) {
				t.Fatalf("%d predecessor hints, want one per joiner (%d)", hints, count-1)
			}
			if adoptions == 0 {
				t.Fatal("no stabilize walk step adopted a successor: the burst never left one stale")
			}
		})
	}
}

// startOrder returns nodes in the order they were started (their
// MemTransport addresses count up).
func startOrder(nodes []*Node) []*Node {
	out := slices.Clone(nodes)
	sort.Slice(out, func(i, j int) bool { return out[i].Addr() < out[j].Addr() })
	return out
}

// TestConvergedRoundCostsThreeRPCs: on a converged ring a stabilize
// round sends each node's successor exactly OpGetPredecessor, OpNotify
// and OpGetSuccessor — the walk takes no step.
func TestConvergedRoundCostsThreeRPCs(t *testing.T) {
	rec := &recordingTransport{Transport: NewMemTransport()}
	ring := idleNodes(t, func() Transport { return rec }, 8)
	burstJoin(t, startOrder(ring))
	stabilizeRound(ring, 1)
	if err := ringErr(ring); err != nil {
		t.Fatal(err)
	}
	for i, n := range ring {
		rec.take()
		n.stabilizeOnce()
		sent := rec.take()
		var ops []Op
		for _, s := range sent {
			if s.addr != n.Successor() {
				t.Fatalf("node %d sent %s to %s, not its successor", i, s.req.Op, s.addr)
			}
			ops = append(ops, s.req.Op)
		}
		if want := []Op{OpGetPredecessor, OpNotify, OpGetSuccessor}; !slices.Equal(ops, want) {
			t.Fatalf("node %d's converged round sent %v, want %v", i, ops, want)
		}
	}
}

// TestTwoNodeRingClosesOnJoin: a lone node takes its first notifier as
// successor inside the notify, and names itself as the predecessor the
// notifier displaced, so the two-node ring is whole when Join returns.
func TestTwoNodeRingClosesOnJoin(t *testing.T) {
	mt := NewMemTransport()
	ring := idleNodes(t, func() Transport { return mt }, 2)
	if err := ring[1].Join(ring[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := ringErr(ring); err != nil {
		t.Fatalf("two-node ring after one join, no round: %v", err)
	}
}

// TestDeadPredecessorOfSuccessorIsNotAdopted: n's successor s still
// names a crash-stopped x as its predecessor (s's checkPredecessor has
// not run yet). The walk asks x for its predecessor, x does not answer,
// and s stays n's successor — adopting x and then failing to notify it
// used to drop the live s from the list too.
func TestDeadPredecessorOfSuccessorIsNotAdopted(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	ring := idleNodes(t, ft.Endpoint, 4)
	n, x, s, s2 := ring[0], ring[1], ring[2], ring[3]
	n.mu.Lock()
	n.succs = []string{s.addr, s2.addr}
	n.mu.Unlock()
	s.mu.Lock()
	s.pred, s.succs = x.addr, []string{s2.addr, n.addr}
	s.mu.Unlock()
	ft.Crash(x.addr)

	n.stabilizeOnce()
	if got := n.Successors(); got[0] != s.addr {
		t.Fatalf("successors %v: the live %s was displaced past the dead %s", got, s.addr, x.addr)
	}
	if got := n.adoptions.Value(); got != 0 {
		t.Fatalf("%d adoptions of a node that never answered", got)
	}
}

// staleListRing returns an idle eight-node ring, converged, over ft.
func staleListRing(t *testing.T, ft *FaultTransport) []*Node {
	t.Helper()
	ring := idleNodes(t, ft.Endpoint, 8)
	burstJoin(t, startOrder(ring))
	for round := range 4 {
		stabilizeRound(ring, int64(round))
	}
	if err := ringErr(ring); err != nil {
		t.Fatal(err)
	}
	return ring
}

// TestDeadSuccessorListDoesNotSplitRing: two crashes kill the whole
// successor list of two nodes whose lists have not caught up (one entry
// each: a node that crashed). Falling back to the predecessor walked
// each of them back to the first node whose predecessor had died — the
// node just past the OTHER crash — and the six survivors of the
// eight-node ring closed into two rings of three, which no later round
// joined. Refilling the list from the known peers that follow the node
// reaches its true successor.
func TestDeadSuccessorListDoesNotSplitRing(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	ring := staleListRing(t, ft)
	for _, i := range []int{3, 7} {
		ring[i].mu.Lock()
		ring[i].succs = []string{ring[(i+1)%len(ring)].addr}
		ring[i].mu.Unlock()
	}
	ft.Crash(ring[0].addr)
	ft.Crash(ring[4].addr)
	survivors := []*Node{ring[1], ring[2], ring[3], ring[5], ring[6], ring[7]}
	for round := range 8 {
		for _, n := range survivors {
			n.checkPredecessor()
		}
		stabilizeRound(survivors, int64(round))
	}
	if err := ringErr(survivors); err != nil {
		t.Fatalf("two crashes that emptied two successor lists: %v", err)
	}
}

// TestLeaveWithDeadSuccessorListHandsOffToKnownPeer: a node whose whole
// successor list is dead hands its keys, as it leaves, to the nearest
// live peer it knows of, instead of failing with every key still on it.
func TestLeaveWithDeadSuccessorListHandsOffToKnownPeer(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	ring := staleListRing(t, ft)
	n := ring[0]
	n.mu.Lock()
	n.succs = []string{ring[1].addr}
	n.mu.Unlock()
	ft.Crash(ring[1].addr)
	key := keyspace.NewKey("leaving")
	if _, err := n.store.Put(key, overlay.Entry{Kind: "d", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Leave(); err != nil {
		t.Fatalf("leave with a dead successor list: %v", err)
	}
	if got := n.HandedOffTo(); got != ring[2].addr {
		t.Fatalf("keys handed to %q, want the next live peer %s", got, ring[2].addr)
	}
	if got := localEntries(t, ft, ring[2].addr, key); len(got) != 1 {
		t.Fatalf("%s holds %v after the hand-off", ring[2].addr, got)
	}
}

// hintRing plants three idle nodes p < n < s where s still has p as its
// predecessor and n, with no predecessor, has s as its successor: n's
// next notify displaces p at s.
func hintRing(t *testing.T, transport func() Transport) (p, n, s *Node) {
	t.Helper()
	ring := idleNodes(t, transport, 3)
	p, n, s = ring[0], ring[1], ring[2]
	s.mu.Lock()
	s.pred = p.addr
	s.mu.Unlock()
	n.mu.Lock()
	n.succs = []string{s.addr}
	n.mu.Unlock()
	return p, n, s
}

// TestDeadHintIsClearedByCheckPredecessor: the predecessor a notify
// reply names is taken even if it is dead — it is only a hint — and the
// next checkPredecessor clears it as it would any dead predecessor.
func TestDeadHintIsClearedByCheckPredecessor(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	p, n, s := hintRing(t, ft.Endpoint)
	ft.Crash(p.addr)
	n.stabilizeOnce()
	if s.Predecessor() != n.addr || n.Predecessor() != p.addr || n.hints.Value() != 1 {
		t.Fatalf("after n's notify: s.pred %s, n.pred %s, hints %d; want %s, the displaced %s, 1",
			s.Predecessor(), n.Predecessor(), n.hints.Value(), n.addr, p.addr)
	}
	n.checkPredecessor()
	if got := n.Predecessor(); got != "" {
		t.Fatalf("dead hinted predecessor %s survived checkPredecessor (pred %s)", p.addr, got)
	}
}

// TestHintNeverReplacesKnownPredecessor: a hint only narrows a range
// that was everything; a node that knows a predecessor keeps it.
func TestHintNeverReplacesKnownPredecessor(t *testing.T) {
	mt := NewMemTransport()
	p, n, s := hintRing(t, func() Transport { return mt })
	n.mu.Lock()
	n.pred = s.addr // any known predecessor, right or wrong, is not the hint's to replace
	n.mu.Unlock()
	n.stabilizeOnce()
	if s.Predecessor() != n.addr {
		t.Fatalf("s.pred = %s: n's notify did not displace %s", s.Predecessor(), p.addr)
	}
	if got := n.Predecessor(); got != s.addr || n.hints.Value() != 0 {
		t.Fatalf("n.pred = %s with %d hints; the known %s must stay", got, n.hints.Value(), s.addr)
	}
}

// TestHintedNodePullsItsRange: a notify moves no keys — not to the
// notifier, not from a hinted predecessor's first notify. Each node
// pulls its own range by repair exchange from its successor: n once a
// notify reply has hinted its predecessor p (before that n knows no
// range and pulls nothing), and p, the hinted predecessor, from n. The
// pulls copy: each old holder keeps its key until its drop round has
// shipped it to the owner and seen the ack, and then the owner alone
// holds it.
func TestHintedNodePullsItsRange(t *testing.T) {
	mt := NewMemTransport()
	p, n, s := hintRing(t, func() Transport { return mt })
	p.mu.Lock()
	p.pred, p.succs = s.addr, []string{n.addr} // close the ring p → n → s → p, so routing finds every owner
	p.mu.Unlock()
	s.mu.Lock()
	s.succs = []string{p.addr}
	s.mu.Unlock()
	nKey := keyWhere(t, "n-range", func(k keyspace.Key) bool { return k.Between(p.id, n.id) })
	pKey := keyWhere(t, "p-range", func(k keyspace.Key) bool { return k.Between(s.id, p.id) })
	for holder, key := range map[*Node]keyspace.Key{s: nKey, n: pKey} {
		if _, err := holder.store.Put(key, overlay.Entry{Kind: "d", Value: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	held := func(node *Node, key keyspace.Key) bool { return len(localEntries(t, mt, node.addr, key)) > 0 }
	n.syncReplicas()
	n.stabilizeOnce()
	if n.Predecessor() != p.addr {
		t.Fatalf("n.pred = %s, want the hinted %s", n.Predecessor(), p.addr)
	}
	if held(n, nKey) {
		t.Fatal("n holds its key before any pull: a notify reply carried it, or n pulled with no range known")
	}
	for i := range 2 {
		resp, err := mt.Call(n.addr, Message{Op: OpNotify, Addr: p.addr})
		if err != nil || !resp.Ok || len(resp.KV) != 0 {
			t.Fatalf("notify %d from the hinted predecessor: %+v, %v; want an ack carrying no keys", i+1, resp, err)
		}
	}
	n.syncReplicas()
	p.syncReplicas()
	if !held(n, nKey) || !held(s, nKey) || !held(p, pKey) || !held(n, pKey) {
		t.Fatal("after the pulls the owners and the old holders must all hold the keys: the pull copies")
	}
	if got := n.RepairStats().Pulls + p.RepairStats().Pulls; got != 2 {
		t.Fatalf("%d pulled keys counted, want 2", got)
	}
	s.dropStaleCopies()
	n.dropStaleCopies()
	for _, node := range []*Node{p, n, s} {
		if held(node, nKey) != (node == n) || held(node, pKey) != (node == p) {
			t.Fatalf("after the drop rounds %s holds n's key %v, p's key %v; want each owner alone to hold its key",
				node.addr, held(node, nKey), held(node, pKey))
		}
	}
}

// lostPullReply drops the reply to the first repair offer whose answer
// carries keys: the partner has answered, the puller never hears of it.
type lostPullReply struct {
	Transport
	mu   sync.Mutex
	lost bool
}

func (l *lostPullReply) Call(addr string, req Message) (Message, error) {
	resp, err := l.Transport.Call(addr, req)
	if err == nil && req.Op == OpRepairSync && len(resp.KV) > 0 {
		l.mu.Lock()
		defer l.mu.Unlock()
		if !l.lost {
			l.lost = true
			return Message{}, fmt.Errorf("%w: %s (reply lost)", ErrUnreachable, addr)
		}
	}
	return resp, err
}

// TestZeroReplicationLostPullReplyLosesNothing: at replication 0, A
// joins B, which holds every key, and the reply to A's pull, carrying
// the keys A now owns, is lost. The pull only copies, so B still holds
// them, and B's next repair round ships them to A and drops its own
// copies only once A has acked.
func TestZeroReplicationLostPullReplyLosesNothing(t *testing.T) {
	mt := NewMemTransport()
	start := func(tr Transport) *Node {
		n, err := Start(Config{Transport: tr, Addr: "mem:0", StabilizeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		return n
	}
	b := start(mt)
	lossy := &lostPullReply{Transport: mt}
	a := start(lossy)
	entry := overlay.Entry{Kind: "d", Value: "v"}
	keys := make([]keyspace.Key, 64)
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("handover-%d", i))
		if resp, err := mt.Call(b.addr, Message{Op: OpPut, Key: keys[i], Entry: entry, TTL: routeTTL}); err != nil || !resp.Ok {
			t.Fatalf("put %d at b: %+v, %v", i, resp, err)
		}
	}
	if err := a.Join(b.addr); err != nil {
		t.Fatal(err)
	}
	lossy.mu.Lock()
	lost := lossy.lost
	lossy.mu.Unlock()
	if !lost {
		t.Fatal("no pull reply carried keys: the scenario did not engage")
	}
	ring := []*Node{a, b}
	for round := range 2 {
		stabilizeRound(ring, int64(round))
	}
	if err := ringErr(ring); err != nil {
		t.Fatal(err)
	}
	var owned []keyspace.Key
	for _, k := range keys {
		if k.Between(b.id, a.id) {
			owned = append(owned, k)
		}
	}
	if len(owned) == 0 {
		t.Fatal("no key falls in a's range")
	}
	held := func(n *Node, k keyspace.Key) bool { return len(localEntries(t, mt, n.addr, k)) > 0 }
	for _, k := range owned {
		if held(a, k) || !held(b, k) {
			t.Fatalf("after the lost pull reply key %s: held by a %v, by b %v; want b alone", k.Short(), held(a, k), held(b, k))
		}
	}
	b.RepairNow()
	for _, k := range owned {
		if !held(a, k) || held(b, k) {
			t.Fatalf("after b's repair round key %s: held by a %v, by b %v; want a alone", k.Short(), held(a, k), held(b, k))
		}
	}
}
