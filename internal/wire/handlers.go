package wire

import (
	"errors"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// handle dispatches one incoming protocol request. It runs on the
// transport's serving goroutine.
func (n *Node) handle(req Message) Message {
	switch req.Op {
	case OpPing:
		return Message{Op: OpPing, Ok: true, Addr: n.addr}
	case OpFindSuccessor:
		return n.handleFindSuccessor(req)
	case OpGetPredecessor:
		n.mu.Lock()
		defer n.mu.Unlock()
		return Message{Op: req.Op, Addr: n.pred}
	case OpGetSuccessor:
		n.mu.Lock()
		defer n.mu.Unlock()
		out := make([]string, len(n.succs))
		copy(out, n.succs)
		return Message{Op: req.Op, Addr: n.succs[0], Addrs: out}
	case OpNotify:
		return n.handleNotify(req)
	case OpPut:
		return n.handlePut(req)
	case OpGet:
		return n.handleGet(req)
	case OpRemove:
		return n.handleRemove(req)
	case OpTransfer, OpPutReplica:
		if err := n.adoptKeys(req.KV); err != nil {
			return Message{Op: req.Op, Err: err.Error()}
		}
		return Message{Op: req.Op, Ok: true}
	case OpPutBatch:
		return n.handlePutBatch(req)
	case OpRemoveBatch:
		return n.handleRemoveBatch(req)
	case OpGetBatch:
		return n.handleGetBatch(req)
	case OpRemoveReplica:
		if len(req.KV) > 0 {
			// Batched replica removal (fan-out of an OpRemoveBatch); no
			// further propagation.
			return n.handleRemoveBatch(req)
		}
		return n.handleRemove(req)
	case OpRepairSync:
		return n.handleRepairSync(req)
	case OpMerge:
		return n.handleMerge(req)
	case OpStats:
		return n.handleStats(req)
	default:
		return Message{Op: req.Op, Err: "unknown operation"}
	}
}

// handleFindSuccessor implements recursive Chord routing: answer directly
// when the key falls between this node and its successor, otherwise
// forward to the closest preceding finger.
func (n *Node) handleFindSuccessor(req Message) Message {
	n.mu.Lock()
	succ := n.succs[0]
	n.mu.Unlock()

	if succ == n.addr || req.Key.Between(n.id, n.peerID(succ)) {
		return Message{Op: req.Op, Addr: succ, Hops: req.Hops}
	}
	if req.TTL <= 0 {
		return Message{Op: req.Op, Err: ErrTTLExceeded.Error()}
	}
	next := n.closestPreceding(req.Key)
	if next == n.addr {
		next = succ
	}
	resp, err := n.cfg.Transport.Call(next, Message{
		Op: OpFindSuccessor, Key: req.Key, TTL: req.TTL - 1, Hops: req.Hops + 1,
	})
	if err != nil {
		// The chosen hop is dead; fall back to the successor chain, which
		// stabilization keeps live.
		if next != succ {
			resp, err = n.cfg.Transport.Call(succ, Message{
				Op: OpFindSuccessor, Key: req.Key, TTL: req.TTL - 1, Hops: req.Hops + 1,
			})
		}
		if err != nil {
			return Message{Op: req.Op, Err: err.Error()}
		}
	}
	return resp
}

// closestPreceding picks the finger (or successor-list entry) that most
// closely precedes key.
func (n *Node) closestPreceding(key keyspace.Key) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	last := ""
	for i := keyspace.Bits - 1; i >= 0; i-- {
		f := n.fingers[i]
		// Runs of slots share one target (a ring of N nodes fills the 160
		// slots with O(log N) distinct addresses): test each run once.
		if f == "" || f == n.addr || f == last {
			continue
		}
		last = f
		if n.peerID(f).BetweenOpen(n.id, key) {
			return f
		}
	}
	for i := len(n.succs) - 1; i >= 0; i-- {
		s := n.succs[i]
		if s != n.addr && n.peerID(s).BetweenOpen(n.id, key) {
			return s
		}
	}
	return n.addr
}

// handleNotify learns about a possible new predecessor and hands over the
// keys that now belong to it (everything outside (pred, self]). The
// handover runs immediately when the predecessor pointer changes — that
// is an ownership transfer and the new owner must serve its range now —
// but for an UNCHANGED predecessor only on the repair cadence (every
// RepairEvery-th notify): re-sending is anti-entropy, and doing it every
// round would re-ship this node's entire retained replica set each
// stabilize tick, with the predecessor re-putting every entry through
// its store (and, for a durable store, re-appending it to the WAL).
//
// A predecessor taken from a notify reply (a hint, see stabilizeOnce)
// has not notified this node itself, so its first notify still counts as
// a change and gets the handover. The reply to a notifier that replaced
// the predecessor names the displaced one in Addr — the notifier's own
// predecessor — and a lone node, its own predecessor, names itself and
// takes the notifier as successor at once, closing a two-node ring
// (DESIGN.md §23).
func (n *Node) handleNotify(req Message) Message {
	cand := req.Addr
	if cand == "" || cand == n.addr {
		return Message{Op: req.Op, Ok: false}
	}
	// The predecessor decision is routing state: it stays under n.mu.
	// The key handover below walks the store and must NOT hold n.mu —
	// store access is serialized per key stripe instead.
	n.mu.Lock()
	changed, displaced := false, ""
	if n.pred == "" || n.peerID(cand).BetweenOpen(n.peerID(n.pred), n.id) {
		displaced = n.pred
		if displaced == "" && n.succs[0] == n.addr {
			displaced = n.addr
		}
		n.pred, changed = cand, true
	} else if n.pred == cand && n.predHinted {
		changed = true
	}
	if changed {
		n.predHinted = false
	}
	accepted := n.pred == cand
	var due bool
	if accepted {
		n.notifySeen++
		due = n.cfg.RepairEvery > 0 && n.notifySeen%n.cfg.RepairEvery == 0
		if n.succs[0] == n.addr {
			n.succs[0] = cand
		}
	}
	n.mu.Unlock()
	if !accepted {
		return Message{Op: req.Op, Ok: false}
	}
	if !changed && !due {
		return Message{Op: req.Op, Ok: true}
	}
	// Hand over keys the new predecessor is responsible for. Keys that
	// belong even further back migrate hop by hop across handover rounds.
	// With replication enabled the local copies are RETAINED — this node
	// is within the new owner's replica set, and deleting them here would
	// strip the replicas faster than the repair loop restores them.
	var kv []KeyEntries
	predID := n.peerID(cand)
	for _, k := range n.localKeys() {
		if k.Between(predID, n.id) {
			continue
		}
		var item KeyEntries
		// One View per key: the entries and tombstones shipped for a key
		// are a consistent pair even while writers hit other stripes.
		_ = n.store.View(k, func(s Store) error {
			item = KeyEntries{Key: k, Entries: s.Get(k), Tombs: s.Tombstones(k)}
			return nil
		})
		if len(item.Entries) == 0 && len(item.Tombs) == 0 {
			continue // raced with a concurrent delete; nothing to hand over
		}
		kv = append(kv, item)
	}
	if n.cfg.ReplicationFactor == 0 {
		for _, item := range kv {
			// Best effort: the predecessor holds the entries now, so a
			// failed local delete only costs a duplicate copy.
			_ = n.store.Replace(item.Key, nil, nil)
		}
	}
	return Message{Op: req.Op, Ok: true, KV: kv, Addr: displaced}
}

// replicate sends msg to this node's replication successors — the first
// ReplicationFactor entries of its successor list other than itself —
// and returns those that acknowledged it. Delivery is best effort (the
// repair loop restores what a lost message leaves behind); the acks are
// what lets a remove's reply tell the client whom the delete reached.
func (n *Node) replicate(msg Message) (acked []string) {
	if n.cfg.ReplicationFactor == 0 {
		return nil
	}
	n.mu.Lock()
	succs := make([]string, len(n.succs))
	copy(succs, n.succs)
	n.mu.Unlock()
	sent := 0
	for _, succ := range succs {
		if succ == n.addr {
			continue
		}
		if sent >= n.cfg.ReplicationFactor {
			break
		}
		if resp, err := n.cfg.Transport.Call(succ, msg); err == nil && resp.Err == "" {
			acked = append(acked, succ)
		}
		sent++
	}
	return acked
}

// splitForeign partitions a batch into the items this node owns (keys
// in (pred, self]) and the items that belong elsewhere — the result of
// a client whose membership view is stale, or of churn between the
// client's routing and the message's arrival. A node without a
// predecessor owns everything it is handed.
func (n *Node) splitForeign(kv []KeyEntries) (owned, foreign []KeyEntries) {
	n.mu.Lock()
	pred := n.pred
	n.mu.Unlock()
	if pred == "" || pred == n.addr {
		return kv, nil
	}
	predID := n.peerID(pred)
	for _, item := range kv {
		if item.Key.Between(predID, n.id) {
			owned = append(owned, item)
		} else {
			foreign = append(foreign, item)
		}
	}
	return owned, foreign
}

// routeForeign resolves each foreign item's true owner through this
// node's own Chord routing and groups the items per owner for
// forwarding. Items that route back to this node (the predecessor
// pointer, not the client, was stale) are returned in self so the
// caller applies them locally instead of bouncing them.
func (n *Node) routeForeign(foreign []KeyEntries) (groups map[string][]KeyEntries, order []string, self []KeyEntries, err error) {
	groups = make(map[string][]KeyEntries)
	for _, item := range foreign {
		r := n.handleFindSuccessor(Message{Op: OpFindSuccessor, Key: item.Key, TTL: routeTTL})
		if r.Err != "" {
			return nil, nil, nil, errors.New(r.Err)
		}
		if r.Addr == "" || r.Addr == n.addr {
			self = append(self, item)
			continue
		}
		if _, ok := groups[r.Addr]; !ok {
			order = append(order, r.Addr)
		}
		groups[r.Addr] = append(groups[r.Addr], item)
	}
	return groups, order, self, nil
}

// owns reports whether key falls in this node's (pred, self] range. A
// node without a predecessor owns everything it is handed.
func (n *Node) owns(key keyspace.Key) bool {
	n.mu.Lock()
	pred := n.pred
	n.mu.Unlock()
	return pred == "" || pred == n.addr || key.Between(n.peerID(pred), n.id)
}

// forwardForeign is the first step of every single-key handler (OpPut,
// OpGet, OpRemove). TTL > 0 marks the request OWNER-ADDRESSED: the
// client computed this node as the key's owner from its membership
// view, or resolved it while the ring was routing around an
// unresponsive peer, and either may be stale. A key outside (pred, self]
// is therefore forwarded to its Chord-routed owner with TTL-1 — views
// that disagree decrement it and cannot loop a request forever — and
// the owner's reply, which names the node that served (Addr) and the
// forwarding steps taken (Hops), is relayed back with done = true. A
// routing or forward failure NACKs: no ack is ever issued for an entry
// resting on a node that disclaims the key. done = false means serve
// here: the key is owned, or routing resolved it back to this node (the
// predecessor pointer, not the client, was stale), or TTL is 0 — the
// "exactly this node's copy" form of hedge, failover and replica-sweep
// traffic, which must never be forwarded.
func (n *Node) forwardForeign(req Message) (resp Message, done bool) {
	if req.TTL <= 0 || n.owns(req.Key) {
		return Message{}, false
	}
	if req.TTL == 1 {
		// The budget cannot cover another hop, and arriving there with
		// TTL 0 would read as a local request.
		return Message{Op: req.Op, Err: ErrTTLExceeded.Error()}, true
	}
	r := n.handleFindSuccessor(Message{Op: OpFindSuccessor, Key: req.Key, TTL: routeTTL})
	if r.Err != "" {
		return Message{Op: req.Op, Err: r.Err}, true
	}
	if r.Addr == "" || r.Addr == n.addr {
		return Message{}, false
	}
	n.ownerForwards.Inc()
	req.TTL--
	req.Hops += r.Hops + 1
	resp, err := n.cfg.Transport.Call(r.Addr, req)
	if err != nil && resp.Err == "" {
		// Transport failure; an overload NACK already travels in resp.
		resp = Message{Op: req.Op, Err: err.Error()}
	}
	return resp, true
}

// handleGet serves a read. Store reads take only the key's stripe
// read-lock — a get never waits behind writes to other stripes.
func (n *Node) handleGet(req Message) Message {
	if resp, done := n.forwardForeign(req); done {
		return resp
	}
	return Message{Op: req.Op, Entries: n.store.Get(req.Key), Ok: true, Addr: n.addr, Hops: req.Hops}
}

// handleGetBatch serves the keys of a batched read that this node owns:
// the reply's KV lists each key in (pred, self] with its entries — an
// owned key that holds nothing is listed empty — in request order, and
// Addr names this node. Foreign keys are left out, not forwarded: the
// client re-reads each unanswered key through the single-key OpGet,
// whose forwarding, fallback and failover already cover a stale view,
// so a batch never fans out a second time from inside the ring.
func (n *Node) handleGetBatch(req Message) Message {
	owned, _ := n.splitForeign(req.KV)
	kv := make([]KeyEntries, len(owned))
	for i, item := range owned {
		kv[i] = KeyEntries{Key: item.Key, Entries: n.store.Get(item.Key)}
	}
	return Message{Op: req.Op, Ok: true, Addr: n.addr, KV: kv}
}

// handlePut stores one entry at its owner and replicates it.
func (n *Node) handlePut(req Message) Message {
	if resp, done := n.forwardForeign(req); done {
		return resp
	}
	_, err := n.store.Put(req.Key, req.Entry)
	if err != nil {
		// The write never became durable; refuse the ack so the client
		// retries against a healthy replica instead of trusting a copy
		// that would not survive a restart.
		return Message{Op: req.Op, Err: err.Error()}
	}
	n.replicate(Message{Op: OpPutReplica, KV: []KeyEntries{{Key: req.Key, Entries: []overlay.Entry{req.Entry}}}})
	return Message{Op: req.Op, Ok: true, Addr: n.addr, Hops: req.Hops}
}

// handlePutBatch stores a batch of entries in one round. Clients route
// batches one-hop from their membership view, so the handler first
// splits off any keys this node does not own and forwards them to their
// Chord-routed owners with a decremented TTL (disagreeing views cannot
// loop a batch forever). The locally-owned remainder is applied per key
// as one atomic critical section each (store.Update) — atomic with
// respect to every other mutator of that key — and each put goes
// through the Store seam, so a durable store WALs every entry before
// the ack. The first store or
// forward failure NACKs the batch: puts are idempotent, so the client
// retries the whole batch and the already-applied prefix deduplicates.
// Successful batches replicate to the successor set as one OpPutReplica
// carrying the locally-adopted KV payload; forwarded items replicate at
// their true owner.
func (n *Node) handlePutBatch(req Message) Message {
	owned, foreign := n.splitForeign(req.KV)
	var fwdGroups map[string][]KeyEntries
	var fwdOrder []string
	if len(foreign) > 0 {
		if req.TTL <= 0 {
			return Message{Op: req.Op, Err: ErrTTLExceeded.Error()}
		}
		groups, order, self, rerr := n.routeForeign(foreign)
		if rerr != nil {
			return Message{Op: req.Op, Err: rerr.Error()}
		}
		owned = append(owned, self...)
		fwdGroups, fwdOrder = groups, order
	}
	if err := n.adoptKeys(owned); err != nil {
		return Message{Op: req.Op, Err: err.Error()}
	}
	n.replicateKV(owned, OpPutReplica)
	for _, target := range fwdOrder {
		resp, err := n.cfg.Transport.Call(target, Message{Op: OpPutBatch, KV: fwdGroups[target], TTL: req.TTL - 1})
		if err == nil && resp.Err != "" {
			err = errors.New(resp.Err)
		}
		if err != nil {
			return Message{Op: req.Op, Err: err.Error()}
		}
	}
	return Message{Op: req.Op, Ok: true}
}

// handleRemoveBatch deletes a batch of (key, entry) pairs, each key's
// removals under that key's own critical section. The response's Keys
// field carries how many entries were actually removed. An origin batch
// (OpRemoveBatch) forwards keys this node does not own to their
// Chord-routed owners like handlePutBatch (summing their removed counts
// into the response) and propagates its local deletions to the replica
// set as one KV-carrying OpRemoveReplica; replica copies
// (OpRemoveReplica with KV) neither forward nor propagate — they target
// exactly the node they arrive at.
//
// An origin batch's reply also answers the two questions its sender
// would otherwise spend messages on (DESIGN.md §20). KV lists, key
// only and in request order, every key that holds no live entry once
// its removals are applied — decided inside the key's critical section,
// so no concurrent put can fall between the removal and the verdict,
// and as the key's state rather than the batch's effect: a key that was
// empty before is listed too, and the keys forwarded owners report are
// merged in. Addrs names the successors that acknowledged the
// propagated OpRemoveReplica, and is set only when every key of the
// request was served here: whoever is named there has applied the whole
// batch's deletions and need not be sent them again.
func (n *Node) handleRemoveBatch(req Message) Message {
	kv := req.KV
	origin := req.Op == OpRemoveBatch
	var fwdGroups map[string][]KeyEntries
	var fwdOrder []string
	if origin {
		owned, foreign := n.splitForeign(kv)
		kv = owned
		if len(foreign) > 0 {
			if req.TTL <= 0 {
				return Message{Op: req.Op, Err: ErrTTLExceeded.Error()}
			}
			groups, order, self, rerr := n.routeForeign(foreign)
			if rerr != nil {
				return Message{Op: req.Op, Err: rerr.Error()}
			}
			kv = append(kv, self...)
			fwdGroups, fwdOrder = groups, order
		}
	}
	removed := 0
	var emptied map[keyspace.Key]bool
	if origin {
		emptied = make(map[keyspace.Key]bool, len(req.KV))
	}
	var firstErr error
	for _, item := range kv {
		item := item
		err := n.store.Update(item.Key, func(s Store) error {
			var uerr error
			for _, e := range item.Entries {
				ok, err := s.Remove(item.Key, e)
				if err != nil && uerr == nil {
					uerr = err
				}
				if err == nil {
					n.tomb.created.Inc()
				}
				if ok {
					removed++
				}
			}
			if origin && len(s.Get(item.Key)) == 0 {
				emptied[item.Key] = true
			}
			return uerr
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return Message{Op: req.Op, Err: firstErr.Error(), Keys: removed}
	}
	var acked []string
	if removed > 0 && origin {
		acked = n.replicateKV(kv, OpRemoveReplica)
	}
	for _, target := range fwdOrder {
		resp, err := n.cfg.Transport.Call(target, Message{Op: OpRemoveBatch, KV: fwdGroups[target], TTL: req.TTL - 1})
		if err == nil && resp.Err != "" {
			err = errors.New(resp.Err)
		}
		if err != nil {
			return Message{Op: req.Op, Err: err.Error(), Keys: removed}
		}
		removed += resp.Keys
		for _, item := range resp.KV {
			emptied[item.Key] = true
		}
	}
	reply := Message{Op: req.Op, Ok: removed > 0, Keys: removed}
	if len(fwdOrder) == 0 {
		reply.Addrs = acked
	}
	for _, item := range req.KV {
		if emptied[item.Key] {
			reply.KV = append(reply.KV, KeyEntries{Key: item.Key})
		}
	}
	return reply
}

// replicateKV forwards a batch mutation to the successor replicas as
// one message each; an empty batch sends nothing.
func (n *Node) replicateKV(kv []KeyEntries, op Op) (acked []string) {
	if len(kv) == 0 {
		return nil
	}
	return n.replicate(Message{Op: op, KV: kv})
}

// handleRemove deletes one entry: at the key's owner, which propagates
// the deletion to its replicas (OpRemove), or from exactly this node's
// copy (OpRemoveReplica, which carries no TTL and is never forwarded).
// The owner's reply names in Addrs the successors that acknowledged the
// propagated delete, as handleRemoveBatch's does.
func (n *Node) handleRemove(req Message) Message {
	if resp, done := n.forwardForeign(req); done {
		return resp
	}
	removed, err := n.store.Remove(req.Key, req.Entry)
	if err != nil {
		return Message{Op: req.Op, Err: err.Error()}
	}
	n.tomb.created.Inc()
	resp := Message{Op: req.Op, Ok: removed, Addr: n.addr, Hops: req.Hops}
	if removed && req.Op == OpRemove {
		// Propagate the deletion to replicas outside the lock.
		resp.Addrs = n.replicate(Message{Op: OpRemoveReplica, Key: req.Key, Entry: req.Entry})
	}
	return resp
}

func (n *Node) handleStats(req Message) Message {
	resp := Message{
		Op:            req.Op,
		Ok:            true,
		Keys:          n.store.Len(),
		EntriesByKind: make(map[string]int),
		BytesByKind:   make(map[string]int64),
	}
	n.store.ForEach(func(_ keyspace.Key, entries []overlay.Entry) bool {
		kinds := make(map[string]bool, 2)
		for _, e := range entries {
			resp.EntriesByKind[e.Kind]++
			resp.BytesByKind[e.Kind] += int64(len(e.Value))
			kinds[e.Kind] = true
		}
		for k := range kinds {
			resp.BytesByKind[k] += keyspace.Size
		}
		return true
	})
	return resp
}
