package wire

import (
	"errors"
	"slices"

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
		return Message{Op: req.Op, Addr: n.succs[0], Addrs: slices.Clone(n.succs)}
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
	case OpRemoveReplica:
		// A replica copy targets exactly this node: no forward, no
		// propagation. The reply lists the digests this copy could not
		// resolve, for the sender to re-send whole.
		removed, _, unresolved, err := n.removeEntries(req.KV, req.Digests, nil)
		if err != nil {
			return Message{Op: req.Op, Err: err.Error(), Keys: removed}
		}
		return Message{Op: req.Op, Ok: removed > 0, Keys: removed, Digests: unresolved}
	case OpGetBatch:
		return n.handleGetBatch(req)
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
	fwd := Message{Op: OpFindSuccessor, Key: req.Key, TTL: req.TTL - 1, Hops: req.Hops + 1}
	resp, err := n.cfg.Transport.Call(next, fwd)
	if err != nil && next != succ {
		// The chosen hop is dead; fall back to the successor chain, which
		// stabilization keeps live.
		resp, err = n.cfg.Transport.Call(succ, fwd)
	}
	if err != nil {
		return Message{Op: req.Op, Err: err.Error()}
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

// handleNotify learns about a possible new predecessor. It moves ring
// pointers and nothing else: the keys a new predecessor now owns reach
// it by its own repair exchange (repair.go), which Join runs at once.
// The reply to a notifier that replaced the predecessor names the
// displaced one in Addr — the notifier's own predecessor — and a lone
// node, its own predecessor, names itself and takes the notifier as
// successor at once, closing a two-node ring (DESIGN.md §23, §29).
func (n *Node) handleNotify(req Message) Message {
	cand := req.Addr
	if cand == "" || cand == n.addr {
		return Message{Op: req.Op, Ok: false}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	displaced := ""
	if n.pred == "" || n.peerID(cand).BetweenOpen(n.peerID(n.pred), n.id) {
		displaced = n.pred
		if displaced == "" && n.succs[0] == n.addr {
			displaced = n.addr
		}
		n.pred = cand
	}
	if n.pred != cand {
		return Message{Op: req.Op, Ok: false}
	}
	if n.succs[0] == n.addr {
		n.succs[0] = cand
	}
	return Message{Op: req.Op, Ok: true, Addr: displaced}
}

// firstSuccessors lists the first k entries of this node's successor
// list other than itself: its replicas at k = ReplicationFactor.
func (n *Node) firstSuccessors(k int) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, succ := range n.succs {
		if succ != n.addr && len(out) < k {
			out = append(out, succ)
		}
	}
	return out
}

// replicate sends msg to this node's replicas and returns those that
// acknowledged it. Delivery is best effort (the repair loop restores
// what a lost message leaves behind); the acks are what lets a remove's
// reply tell the client whom the delete reached.
func (n *Node) replicate(msg Message) (acked []string) {
	for _, succ := range n.firstSuccessors(n.cfg.ReplicationFactor) {
		if _, err := n.call(succ, msg); err == nil {
			acked = append(acked, succ)
		}
	}
	return acked
}

// replicateRemoval is replicate for the removal of kv's entries, which
// names each entry by digest (nameByDigest) and re-sends whole to a
// replica whatever it could not resolve (sendRemoval). A replica is
// acknowledged only once it has applied every entry.
func (n *Node) replicateRemoval(kv []KeyEntries) (acked []string) {
	whole, digests := nameByDigest(kv)
	req := Message{Op: OpRemoveReplica, KV: whole, Digests: digests}
	for _, succ := range n.firstSuccessors(n.cfg.ReplicationFactor) {
		call := func(req Message) (Message, error) { return n.call(succ, req) }
		if _, err := sendRemoval(call, req, kv); err == nil {
			acked = append(acked, succ)
		}
	}
	return acked
}

// splitForeign partitions a batch into the items this node owns (keys
// in (pred, self]) and the items that belong elsewhere — the result of
// a client whose membership view is stale, or of churn between the
// client's routing and the message's arrival. A node without a
// predecessor owns everything it is handed.
func (n *Node) splitForeign(kv []KeyEntries) (owned, foreign []KeyEntries) {
	for _, item := range kv {
		if n.owns(item.Key) {
			owned = append(owned, item)
		} else {
			foreign = append(foreign, item)
		}
	}
	return owned, foreign
}

// route resolves key's owner through this node's own Chord routing. The
// reply names the owner in Addr and the forwarding steps in Hops, or
// carries the routing failure in Err.
func (n *Node) route(key keyspace.Key) Message {
	return n.handleFindSuccessor(Message{Op: OpFindSuccessor, Key: key, TTL: routeTTL})
}

// ownerGroup is the share of a batch bound for one routed owner: the
// items named whole in kv and, for a remove batch, the entries named
// by digest in digests.
type ownerGroup struct {
	owner   string
	kv      []KeyEntries
	digests []KeyDigest
}

// routeForeign splits a batch — its whole items kv and its digests —
// into the share this node owns (keys in (pred, self], as splitForeign
// decides) and the foreign shares grouped by the owner this node's own
// Chord routing names, in the order the owners were first routed to:
// the one grouping by routed owner in the node, behind both batch
// handlers and the repair drop. An item that routes back to this node
// (the predecessor pointer, not the sender, was stale) joins owned. A
// run of digests under one key is routed once. The first routing
// failure ends the walk.
func (n *Node) routeForeign(kv []KeyEntries, digests []KeyDigest) (owned ownerGroup, groups []ownerGroup, err error) {
	at := make(map[string]int)
	// dest returns the index in groups of key's routed owner, or -1 when
	// this node serves key.
	dest := func(key keyspace.Key) (int, error) {
		if n.owns(key) {
			return -1, nil
		}
		r := n.route(key)
		if r.Err != "" {
			return 0, errors.New(r.Err)
		}
		if r.Addr == "" || r.Addr == n.addr {
			return -1, nil
		}
		i, ok := at[r.Addr]
		if !ok {
			i = len(groups)
			at[r.Addr] = i
			groups = append(groups, ownerGroup{owner: r.Addr})
		}
		return i, nil
	}
	for _, item := range kv {
		i, err := dest(item.Key)
		switch {
		case err != nil:
			return ownerGroup{}, nil, err
		case i < 0:
			owned.kv = append(owned.kv, item)
		default:
			groups[i].kv = append(groups[i].kv, item)
		}
	}
	i := -1
	for j, d := range digests {
		if j == 0 || d.Key != digests[j-1].Key {
			if i, err = dest(d.Key); err != nil {
				return ownerGroup{}, nil, err
			}
		}
		if i < 0 {
			owned.digests = append(owned.digests, d)
		} else {
			groups[i].digests = append(groups[i].digests, d)
		}
	}
	return owned, groups, nil
}

// forward sends a routed group of batch req on to its owner, as a batch
// of the same kind with the TTL one lower, a NACK folded into the error.
// At TTL 0 the budget cannot cover the hop.
func (n *Node) forward(req Message, g ownerGroup) (Message, error) {
	if req.TTL <= 0 {
		return Message{}, ErrTTLExceeded
	}
	return n.call(g.owner, Message{Op: req.Op, KV: g.kv, Digests: g.digests, TTL: req.TTL - 1})
}

// call sends req to addr, a NACK folded into the error.
func (n *Node) call(addr string, req Message) (Message, error) {
	resp, err := n.cfg.Transport.Call(addr, req)
	if err == nil && resp.Err != "" {
		err = errors.New(resp.Err)
	}
	return resp, err
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
	r := n.route(req.Key)
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
// read-lock — a get never waits behind writes to other stripes. A
// conditional read (offerDigest) whose offer equals the key's stored
// digest is answered CodeUnchanged, without its entries. The empty set
// digests to 0, which matches no offer, so an emptied key ships as
// empty. forwardForeign passes a foreign key's request on as it is,
// offer included.
func (n *Node) handleGet(req Message) Message {
	if resp, done := n.forwardForeign(req); done {
		return resp
	}
	entries, unchanged := n.readUnless(req.Key, offerDigest(req))
	if unchanged {
		return Message{Op: req.Op, Code: CodeUnchanged, Ok: true, Addr: n.addr, Hops: req.Hops}
	}
	return Message{Op: req.Op, Entries: entries, Ok: true, Addr: n.addr, Hops: req.Hops}
}

// readUnless reads key for a get that offers offer (0 for none): nil
// and true when the offer equals the key's stored digest, else the
// key's entries.
func (n *Node) readUnless(key keyspace.Key, offer uint64) ([]overlay.Entry, bool) {
	if offer != 0 && n.store.Digest(key) == offer {
		n.getUnchanged.Inc()
		return nil, true
	}
	return n.store.Get(key), false
}

// offerDigest returns the digest a conditional OpGet offers for its
// key, or 0 when it offers none.
func offerDigest(req Message) uint64 {
	if len(req.Digests) != 1 || req.Digests[0].Key != req.Key {
		return 0
	}
	return req.Digests[0].Digest
}

// handleGetBatch serves the keys of a batched read that this node owns,
// in request order, and names this node in Addr. The reply's KV lists
// each owned key of the request's KV with its entries (an owned key
// that holds nothing is listed empty), then each owned key of the
// request's Digests — keys that offer a digest, as a conditional OpGet
// does — whose set no longer has it. The reply's Digests lists the
// offered keys whose set still has it, the digest echoed, with no
// entries. Foreign keys are left out, not forwarded: the client re-reads
// each unanswered key through the single-key OpGet, whose forwarding,
// fallback and failover already cover a stale view, so a batch never
// fans out a second time from inside the ring.
func (n *Node) handleGetBatch(req Message) Message {
	owned, _ := n.splitForeign(req.KV)
	resp := Message{Op: req.Op, Ok: true, Addr: n.addr, KV: make([]KeyEntries, len(owned))}
	for i, item := range owned {
		resp.KV[i] = KeyEntries{Key: item.Key, Entries: n.store.Get(item.Key)}
	}
	if len(req.Digests) > 0 {
		resp.Digests = make([]KeyDigest, 0, len(req.Digests))
	}
	for _, offer := range req.Digests {
		if !n.owns(offer.Key) {
			continue
		}
		if entries, unchanged := n.readUnless(offer.Key, offer.Digest); unchanged {
			resp.Digests = append(resp.Digests, offer)
		} else {
			resp.KV = append(resp.KV, KeyEntries{Key: offer.Key, Entries: entries})
		}
	}
	return resp
}

// handlePut stores one entry at its owner and replicates it: the
// one-item form of handlePutBatch's local step.
func (n *Node) handlePut(req Message) Message {
	if resp, done := n.forwardForeign(req); done {
		return resp
	}
	if err := n.putOwned([]KeyEntries{{Key: req.Key, Entries: []overlay.Entry{req.Entry}}}); err != nil {
		return Message{Op: req.Op, Err: err.Error()}
	}
	return Message{Op: req.Op, Ok: true, Addr: n.addr, Hops: req.Hops}
}

// putOwned is the write an owner applies for every put it serves: it
// adopts kv (adoptKeys) and replicates it to the successor set as one
// OpPutReplica. A store failure refuses the ack before anything is
// replicated: the write never became durable, so the client retries
// against a healthy replica instead of trusting a copy that would not
// survive a restart.
func (n *Node) putOwned(kv []KeyEntries) error {
	if err := n.adoptKeys(kv); err != nil {
		return err
	}
	if len(kv) > 0 {
		n.replicate(Message{Op: OpPutReplica, KV: kv})
	}
	return nil
}

// handlePutBatch stores a batch of entries in one round. Clients route
// batches one-hop from their membership view, so the handler first
// splits off any keys this node does not own and forwards them to their
// Chord-routed owners with a decremented TTL (disagreeing views cannot
// loop a batch forever). The locally-owned remainder is applied per key
// as one atomic critical section each (store.Update) — atomic with
// respect to every other mutator of that key — and each put goes
// through the Store seam, so a durable store WALs every entry before
// the ack. The first store or forward failure NACKs the batch: puts are
// idempotent, so the client retries the whole batch and the
// already-applied prefix deduplicates. Forwarded items replicate at
// their true owner.
func (n *Node) handlePutBatch(req Message) Message {
	owned, groups, err := n.routeForeign(req.KV, nil)
	if err == nil {
		err = n.putOwned(owned.kv)
	}
	for _, g := range groups {
		if err != nil {
			break
		}
		_, err = n.forward(req, g)
	}
	if err != nil {
		return Message{Op: req.Op, Err: err.Error()}
	}
	return Message{Op: req.Op, Ok: true}
}

// handleRemoveBatch deletes a batch of (key, entry) pairs, each key's
// removals under that key's own critical section. The request names an
// entry by digest — its key and overlay.EntryHash, in Digests — or, as
// a fallback, whole in KV (DESIGN.md §44). The response's Keys field
// carries how many entries were actually removed, and its Digests the
// digests no held entry, or more than one, answers: nothing is guessed,
// and the sender re-sends those entries whole. It forwards keys this
// node does not own to their Chord-routed owners like handlePutBatch
// (summing their removed counts and their unresolved digests into the
// response) and propagates its local deletions to the replica set
// (removeOwned).
//
// The reply also answers the two questions its sender would otherwise
// spend messages on (DESIGN.md §20). KV lists, key only and in request
// order, every key that holds no live entry once its removals are
// applied — decided inside the key's critical section, so no concurrent
// put can fall between the removal and the verdict, and as the key's
// state rather than the batch's effect: a key that was empty before is
// listed too, and the keys forwarded owners report are merged in. A key
// with an unresolved digest gets its verdict with its whole re-send,
// not here. Addrs names the successors that acknowledged the
// propagated OpRemoveReplica, and is set only when every key of the
// request was served here: whoever is named there has applied the whole
// batch's deletions and need not be sent them again.
func (n *Node) handleRemoveBatch(req Message) Message {
	removed := 0
	var acked []string
	var unresolved []KeyDigest
	emptied := make(map[keyspace.Key]bool, len(req.KV)+len(req.Digests))
	owned, groups, err := n.routeForeign(req.KV, req.Digests)
	if err == nil {
		removed, acked, unresolved, err = n.removeOwned(owned.kv, owned.digests, emptied)
	}
	for _, g := range groups {
		if err != nil {
			break
		}
		var resp Message
		if resp, err = n.forward(req, g); err == nil {
			removed += resp.Keys
			unresolved = append(unresolved, resp.Digests...)
			for _, item := range resp.KV {
				emptied[item.Key] = true
			}
		}
	}
	if err != nil {
		return Message{Op: req.Op, Err: err.Error(), Keys: removed}
	}
	reply := Message{Op: req.Op, Ok: removed > 0, Keys: removed, Digests: unresolved}
	if len(groups) == 0 {
		reply.Addrs = acked
	}
	for _, d := range unresolved {
		delete(emptied, d.Key)
	}
	verdict := func(key keyspace.Key) {
		if emptied[key] {
			reply.KV = append(reply.KV, KeyEntries{Key: key})
			delete(emptied, key)
		}
	}
	for _, item := range req.KV {
		verdict(item.Key)
	}
	for _, d := range req.Digests {
		verdict(d.Key)
	}
	return reply
}

// handleRemove deletes one entry at the key's owner: the one-item form
// of handleRemoveBatch's local step. The entry travels whole, and is
// propagated whole. The reply names in Addrs the successors that
// acknowledged the propagated delete, as handleRemoveBatch's does.
func (n *Node) handleRemove(req Message) Message {
	if resp, done := n.forwardForeign(req); done {
		return resp
	}
	kv := []KeyEntries{{Key: req.Key, Entries: []overlay.Entry{req.Entry}}}
	removed, _, _, err := n.removeEntries(kv, nil, nil)
	if err != nil {
		return Message{Op: req.Op, Err: err.Error()}
	}
	var acked []string
	if removed > 0 {
		acked = n.replicate(Message{Op: OpRemoveReplica, KV: kv})
	}
	return Message{Op: req.Op, Ok: removed > 0, Addr: n.addr, Hops: req.Hops, Addrs: acked}
}

// removeOwned is the delete an owner applies for a remove batch it
// serves: removeEntries, then, if any entry went, the propagation of
// every entry it applied to the successor set (replicateRemoval). It
// returns the successors that applied it, and the digests it could not
// resolve.
func (n *Node) removeOwned(kv []KeyEntries, digests []KeyDigest, emptied map[keyspace.Key]bool) (removed int, acked []string, unresolved []KeyDigest, err error) {
	removed, resolved, unresolved, err := n.removeEntries(kv, digests, emptied)
	if err == nil && removed > 0 {
		acked = n.replicateRemoval(append(slices.Clip(kv), resolved...))
	}
	return removed, acked, unresolved, err
}

// removeEntries deletes each item's entries from this node's copy, every
// key under its own critical section, and returns how many entries
// went. kv names entries whole; digests names them by key and
// overlay.EntryHash, and each run of digests under one key is resolved
// inside that key's section (resolveDigests): the entries it resolves
// are removed as if named whole, and returned in resolved, and the
// digests it cannot resolve are returned in unresolved, untouched. A
// non-nil emptied gets every key left without a live entry, decided
// inside that key's section. The first store failure is returned; the
// remaining items are still attempted.
func (n *Node) removeEntries(kv []KeyEntries, digests []KeyDigest, emptied map[keyspace.Key]bool) (removed int, resolved []KeyEntries, unresolved []KeyDigest, firstErr error) {
	remove := func(key keyspace.Key, entries []overlay.Entry, named []KeyDigest) {
		err := n.store.Update(key, func(s Store) error {
			if len(named) > 0 {
				var missed []KeyDigest
				entries, missed = resolveDigests(s, key, named)
				n.digestsResolved.Add(int64(len(entries)))
				n.digestsUnresolved.Add(int64(len(missed)))
				if len(entries) > 0 {
					resolved = append(resolved, KeyEntries{Key: key, Entries: entries})
				}
				unresolved = append(unresolved, missed...)
			}
			var uerr error
			for _, e := range entries {
				ok, err := s.Remove(key, e)
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
			if emptied != nil && len(s.Get(key)) == 0 {
				emptied[key] = true
			}
			return uerr
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, item := range kv {
		remove(item.Key, item.Entries, nil)
	}
	for len(digests) > 0 {
		run := 1
		for run < len(digests) && digests[run].Key == digests[0].Key {
			run++
		}
		remove(digests[0].Key, nil, digests[:run])
		digests = digests[run:]
	}
	return removed, resolved, unresolved, firstErr
}

// resolveDigests finds, among the entries s holds under key — its live
// entries first, then its tombstones — the one entry each digest names
// by overlay.EntryHash. A digest that matches no held entry, or more
// than one, is never guessed: it is returned in missed.
func resolveDigests(s Store, key keyspace.Key, named []KeyDigest) (found []overlay.Entry, missed []KeyDigest) {
	live, tombs := s.Get(key), s.HeldTombstones(key)
	for _, d := range named {
		var match overlay.Entry
		matches := 0
		see := func(e overlay.Entry) {
			if (matches == 0 || e != match) && overlay.EntryHash(e) == d.Digest {
				match = e
				matches++
			}
		}
		for _, e := range live {
			see(e)
		}
		for _, t := range tombs {
			see(t.Entry)
		}
		if matches == 1 {
			found = append(found, match)
		} else {
			missed = append(missed, d)
		}
	}
	return found, missed
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
