package wire

import (
	"slices"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
)

// Anti-entropy repair: a node periodically recomputes where each stored
// key belongs on the CURRENT ring and makes the stored state match. It is
// the only way keys move between neighbours; a notify moves pointers only.
//
//  1. Sync: the owner offers each partner — its first ReplicationFactor
//     successors, or at R = 0 its immediate successor — its range
//     (pred, self] and a (key, digest) pair per owned key (OpRepairSync;
//     the digest covers live entries AND tombstone identities). The
//     partner answers with the state of every key whose digest differs
//     and of every unoffered key it holds in the range. The owner adopts
//     it first, so a removal or an entry only a replica witnessed (the
//     far side of a healed partition) reaches it, then ships the merged
//     state back with replace semantics. A joiner receives its range
//     this way. At R = 0 only the range is offered and nothing ships.
//  2. Drop: keys this node no longer owes — outside the window
//     (p_{R+1}, self], where p_i is the i-th predecessor — are first
//     forwarded to their routed owner (they may be the only surviving
//     copy, e.g. a write that landed on a stale owner during a
//     partition, or a range its new owner has not pulled yet) and only
//     then deleted locally. Tombstone-only keys are forwarded too: the
//     deletion record may be the only thing standing between a stale
//     copy elsewhere and a resurrection.
//
// Both halves are idempotent and best-effort: a failed RPC leaves the
// key in place and a later round retries. A converged replica set costs
// one digest message per partner per round. The drop runs at every
// ReplicationFactor, R = 0 included: it is how a range's old holder
// lets go of the keys (the owner's pull only copies them).

// RepairStats is a point-in-time snapshot of a node's anti-entropy
// repair work. The counters behind it are atomic, so snapshots taken
// while the node is live are race-free.
type RepairStats struct {
	// Rounds counts repair rounds started.
	Rounds int64
	// Syncs counts repair offers answered by a partner.
	Syncs int64
	// Pulls counts keys adopted from a partner's answer.
	Pulls int64
	// Pushes counts keys shipped to a replica that was missing them (or
	// held a divergent copy).
	Pushes int64
	// Forwards counts misplaced keys routed back to their current owner
	// before being dropped locally.
	Forwards int64
	// Drops counts local copies deleted because the node no longer owes
	// them.
	Drops int64
}

// Merge accumulates another snapshot into s (for fleet-wide totals).
func (s *RepairStats) Merge(o RepairStats) {
	s.Rounds += o.Rounds
	s.Syncs += o.Syncs
	s.Pulls += o.Pulls
	s.Pushes += o.Pushes
	s.Forwards += o.Forwards
	s.Drops += o.Drops
}

// moved counts the keys the rounds moved: pulled, pushed, forwarded or
// dropped.
func (s RepairStats) moved() int64 { return s.Pulls + s.Pushes + s.Forwards + s.Drops }

// repairCounters holds the per-node repair telemetry.
type repairCounters struct {
	rounds   *telemetry.Counter
	syncs    *telemetry.Counter
	pulls    *telemetry.Counter
	pushes   *telemetry.Counter
	forwards *telemetry.Counter
	drops    *telemetry.Counter
}

func newRepairCounters() repairCounters {
	return repairCounters{
		rounds: telemetry.NewCounter("wire_repair_rounds_total",
			"Anti-entropy repair rounds started."),
		syncs: telemetry.NewCounter("wire_repair_syncs_total",
			"Repair offers answered by a partner."),
		pulls: telemetry.NewCounter("wire_repair_pulls_total",
			"Keys adopted from a repair partner's answer."),
		pushes: telemetry.NewCounter("wire_repair_pushes_total",
			"Keys shipped to a replica that was missing them or held a divergent copy."),
		forwards: telemetry.NewCounter("wire_repair_forwards_total",
			"Misplaced keys routed back to their current owner before a local drop."),
		drops: telemetry.NewCounter("wire_repair_drops_total",
			"Local copies deleted because the node no longer owes them."),
	}
}

func (c repairCounters) attach(reg *telemetry.Registry) {
	reg.Attach(c.rounds, c.syncs, c.pulls, c.pushes, c.forwards, c.drops)
}

// tombSalt is an odd multiplier: tombHash(e) = EntryHash(e)·tombSalt
// is a bijection of EntryHash, and differs from it for all but a
// 2^-62 share of entries, so a tombstone never counts as its entry.
const tombSalt = 0x9e3779b97f4a7c15

// tombHash is what a tombstone adds to its key's state digest.
func tombHash(e overlay.Entry) uint64 { return overlay.EntryHash(e) * tombSalt }

// stateDigest is a key's repair digest: live, the overlay.Digest of its
// entry set (Store.Digest keeps it), plus the sum of its tombstones'
// tombHash. At timestamps are excluded: they are local-clock GC
// metadata, and two stores holding tombstones for the same entries must
// agree on the digest regardless of when each learned of the removal.
// A sum does not depend on order, so neither part needs its set sorted;
// an empty state digests to 0.
func stateDigest(live uint64, tombs []Tombstone) uint64 {
	for _, t := range tombs {
		live += tombHash(t.Entry)
	}
	return live
}

// itemDigest is stateDigest of a key's state as it travels or was
// snapshotted: its entries are hashed, as a store does when it stores
// them.
func itemDigest(item KeyEntries) uint64 {
	return stateDigest(overlay.Digest(item.Entries), item.Tombs)
}

// heldDigest is stateDigest of key's state in s, read off the stored
// digest: only the tombstones are hashed, where they are held. The
// caller holds key's lock (HeldTombstones).
func heldDigest(s Store, key keyspace.Key) uint64 {
	return stateDigest(s.Digest(key), s.HeldTombstones(key))
}

// ownedState collects the keys this node owns (live entries or
// tombstones) and their digests. Each key's digest is computed under
// that key's read lock, so a digest always describes a consistent
// (entries, tombstones) pair even while writers hit other keys. One
// closure serves every key's View: a closure per key would escape to the
// heap once per key.
func (n *Node) ownedState(pred string) []KeyDigest {
	keys := n.localKeys()
	owned := make([]KeyDigest, 0, len(keys))
	var item KeyDigest
	digest := func(s Store) error {
		item.Digest = heldDigest(s, item.Key)
		return nil
	}
	for _, k := range keys {
		if pred != "" && !k.Between(n.peerID(pred), n.id) {
			continue // a replica held for another owner
		}
		item = KeyDigest{Key: k}
		_ = n.store.View(k, digest)
		owned = append(owned, item)
	}
	return owned
}

// localKeys lists every key the store holds state for — live entries or
// tombstones — once each: the keys with live entries, then those with
// tombstones alone. The store serializes the iteration itself; n.mu is
// not involved.
func (n *Node) localKeys() []keyspace.Key {
	keys := make([]keyspace.Key, 0, n.store.Len())
	n.store.ForEach(func(k keyspace.Key, _ []overlay.Entry) bool {
		keys = append(keys, k)
		return true
	})
	var tombed []keyspace.Key
	n.store.ForEachTombstone(func(k keyspace.Key, _ []Tombstone) bool {
		tombed = append(tombed, k)
		return true
	})
	if len(tombed) == 0 {
		return keys
	}
	// Strike from tombed, sorted, each key already listed as live.
	slices.SortFunc(tombed, keyspace.Key.Cmp)
	listed := make([]bool, len(tombed))
	for _, k := range keys {
		if i, found := slices.BinarySearchFunc(tombed, k, keyspace.Key.Cmp); found {
			listed[i] = true
		}
	}
	for i, k := range tombed {
		if !listed[i] {
			keys = append(keys, k)
		}
	}
	return keys
}

// snapshot reads the entries and tombstones of every local key want
// accepts: the one walk behind a repair answer's range, the repair drop
// and Leave. Each key is read under its own read lock, so what ships for
// a key is a consistent pair even while writers hit other stripes; a key
// left with neither (a concurrent delete) is skipped.
func (n *Node) snapshot(want func(keyspace.Key) bool) []KeyEntries {
	var kv []KeyEntries
	for _, k := range n.localKeys() {
		if !want(k) {
			continue
		}
		var item KeyEntries
		_ = n.store.View(k, func(s Store) error {
			item = KeyEntries{Key: k, Entries: s.Get(k), Tombs: s.Tombstones(k)}
			return nil
		})
		if len(item.Entries) > 0 || len(item.Tombs) > 0 {
			kv = append(kv, item)
		}
	}
	return kv
}

// repairOnce runs one anti-entropy round (sync then drop). Called from
// the maintenance goroutine; all RPCs happen outside the node lock.
func (n *Node) repairOnce() {
	n.repair.rounds.Inc()
	n.syncReplicas()
	n.dropStaleCopies()
}

// RepairNow runs one repair round (sync, then drop) outside the
// background cadence, for harnesses and operators that need convergence
// at a known point — e.g. re-homing entries an interim owner took while
// overload shedding routed around a busy node. Repair rounds are
// idempotent and mutate each key in its own critical section, so it is
// safe beside the maintenance loop.
func (n *Node) RepairNow() { n.repairOnce() }

// syncReplicas runs the owner's half of the repair exchange with each
// partner: its replicas, or at R = 0 its immediate successor, which held
// the range before this node took it. It offers its range and its owned
// keys' digests, adopts the partner's answer (adoptAnswer) and ships
// back, with replace semantics, each key whose merged state the partner
// lacks. At R = 0 the offer is the range alone and nothing ships; a node
// whose predecessor is unknown has no range to offer.
func (n *Node) syncReplicas() {
	n.mu.Lock()
	pred := n.pred
	n.mu.Unlock()
	ship := n.cfg.ReplicationFactor > 0
	offer := Message{Op: OpRepairSync}
	if pred != "" && pred != n.addr {
		offer.Addr, offer.Key = pred, n.id
	}
	if ship {
		offer.Digests = n.ownedState(pred)
	}
	if offer.Addr == "" && len(offer.Digests) == 0 {
		return
	}
	for _, partner := range n.firstSuccessors(max(n.cfg.ReplicationFactor, 1)) {
		resp, err := n.cfg.Transport.Call(partner, offer)
		if err != nil || remoteError(resp) != nil {
			continue // healed by stabilization and a later round
		}
		n.repair.syncs.Inc()
		if kv := n.adoptAnswer(resp); ship && len(kv) > 0 {
			if sresp, serr := n.cfg.Transport.Call(partner, Message{Op: OpRepairSync, KV: kv}); serr == nil && remoteError(sresp) == nil {
				n.repair.pushes.Add(int64(len(kv)))
			}
		}
	}
}

// adoptAnswer adopts each key of a partner's answer (adopt) and reads
// the merged state in the same critical section, so what ships includes
// it. It returns the merged state of each key that differs from the
// partner's; a key whose adoption failed is left out.
func (n *Node) adoptAnswer(resp Message) []KeyEntries {
	theirs := make(map[keyspace.Key]KeyEntries, len(resp.KV))
	for _, item := range resp.KV {
		theirs[item.Key] = item
	}
	var kv []KeyEntries
	for _, want := range resp.Digests {
		item, pulled := theirs[want.Key]
		merged := KeyEntries{Key: want.Key}
		var mergedDigest uint64
		err := n.store.Update(want.Key, func(s Store) error {
			if pulled {
				if err := n.adopt(s, item); err != nil {
					return err
				}
			}
			merged.Entries, merged.Tombs = s.Get(want.Key), s.Tombstones(want.Key)
			mergedDigest = stateDigest(s.Digest(want.Key), merged.Tombs)
			return nil
		})
		if err != nil {
			continue
		}
		if pulled {
			n.repair.pulls.Inc()
		}
		if mergedDigest != itemDigest(item) {
			kv = append(kv, merged)
		}
	}
	return kv
}

// dropStaleCopies deletes copies this node no longer owes. A node owes a
// key iff the key's owner is within ReplicationFactor predecessors, i.e.
// the key falls in (p_{R+1}, self]. The window start is found by walking
// the predecessor chain; if the walk fails or wraps back to this node
// (ring shorter than the window) every key is owed and nothing is
// dropped — erring on the side of keeping data. Misplaced keys are
// forwarded to their routed owner before the local delete so the last
// surviving copy of a partition-era write cannot be destroyed. They are
// grouped by routed owner (routeForeign), so each owner receives ONE
// OpTransfer carrying every key it now owes — post-churn repair traffic
// scales with the number of owners involved, not the number of keys —
// and a key that routes back here is kept. A routing failure keeps every
// copy until the next round.
func (n *Node) dropStaleCopies() {
	n.mu.Lock()
	pred := n.pred
	n.mu.Unlock()
	if pred == "" || pred == n.addr {
		return
	}
	start := pred
	for i := 0; i < n.cfg.ReplicationFactor; i++ {
		resp, err := n.cfg.Transport.Call(start, Message{Op: OpGetPredecessor})
		if err != nil || resp.Addr == "" {
			return // window unknown; keep everything this round
		}
		start = resp.Addr
		if start == n.addr {
			return // wrapped: the ring fits inside the window
		}
	}
	windowFrom := n.peerID(start)
	// Each stale key's snapshot is both what ships and what the drop
	// below compares the key against.
	stale := n.snapshot(func(k keyspace.Key) bool { return !k.Between(windowFrom, n.id) })
	_, groups, err := n.routeForeign(stale, nil)
	if err != nil {
		return
	}
	for _, g := range groups {
		resp, err := n.cfg.Transport.Call(g.owner, Message{Op: OpTransfer, KV: g.kv})
		if err != nil || resp.Err != "" {
			continue // owner unreachable; keep the copies and retry later
		}
		n.repair.forwards.Add(int64(len(g.kv)))
		for _, item := range g.kv {
			// Drop only if unchanged since the snapshot — an entry written
			// in the meantime has not been forwarded and must not be lost.
			// The compare and the delete share one critical section so a
			// write cannot slip between them.
			_ = n.store.Update(item.Key, func(s Store) error {
				if heldDigest(s, item.Key) == itemDigest(item) {
					if s.Replace(item.Key, nil, nil) == nil {
						n.repair.drops.Inc()
					}
				}
				return nil
			})
		}
	}
}

// handleRepairSync serves both halves of the repair exchange. A request
// carrying KV is the ship phase: the owner's entry AND tombstone sets
// REPLACE the local ones (both empty deletes), so divergent extra
// entries — e.g. a Remove this replica missed — are corrected, not
// merged back in. Any other request is an offer: the reply lists each
// offered key whose local digest differs and each key held here in the
// offered range (Addr, Key] that was not offered, with this node's
// entries and tombstones for each, for the owner to adopt.
func (n *Node) handleRepairSync(req Message) Message {
	if len(req.KV) > 0 {
		for _, item := range req.KV {
			if err := n.store.Replace(item.Key, item.Entries, item.Tombs); err != nil {
				// Refuse the ack: the owner keeps counting this replica as
				// divergent and re-ships next round.
				return Message{Op: req.Op, Err: err.Error()}
			}
		}
		return Message{Op: req.Op, Ok: true}
	}
	var want []KeyDigest
	var theirs []KeyEntries
	answer := func(item KeyEntries) {
		want = append(want, KeyDigest{Key: item.Key})
		if len(item.Entries) > 0 || len(item.Tombs) > 0 {
			theirs = append(theirs, item)
		}
	}
	offered := make(map[keyspace.Key]bool, len(req.Digests))
	for _, d := range req.Digests {
		offered[d.Key] = true
		item := KeyEntries{Key: d.Key}
		var held uint64
		_ = n.store.View(d.Key, func(s Store) error {
			item.Entries, item.Tombs = s.Get(d.Key), s.Tombstones(d.Key)
			held = stateDigest(s.Digest(d.Key), item.Tombs)
			return nil
		})
		if held != d.Digest {
			answer(item)
		}
	}
	if req.Addr != "" {
		from := n.peerID(req.Addr)
		for _, item := range n.snapshot(func(k keyspace.Key) bool { return !offered[k] && k.Between(from, req.Key) }) {
			answer(item)
		}
	}
	return Message{Op: req.Op, Ok: true, Digests: want, KV: theirs}
}
