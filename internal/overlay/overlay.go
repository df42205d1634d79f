// Package overlay defines the substrate contract between the indexing
// layer and the underlying P2P DHT. The paper's techniques "can be
// layered on top of an arbitrary P2P DHT infrastructure" (§I); this
// interface is that boundary. Two substrates implement it, both routing
// recursively on a ring: Chord (the live ring of internal/wire) and the
// simulated Pastry (internal/pastry). docs/SUBSTRATES.md documents the
// contract field by field and what adding a third substrate takes.
//
// Network is the whole required contract. Five optional extensions,
// each found by type assertion and each with a per-key fallback in the
// index layer, let a substrate do better where it can: ContextNetwork
// (deadline-aware reads), ConditionalNetwork (reads that answer
// "unchanged" for a set the caller already holds), BatchNetwork
// (owner-grouped writes and removes), BatchGetNetwork (owner-grouped
// reads) and PruneNetwork (owner-grouped removes that report which keys
// they emptied). Only the live wire.Cluster implements them; the
// evaluation hides them behind a struct{ Network } to keep the
// one-message-per-key accounting.
package overlay

import (
	"context"

	"dhtindex/internal/keyspace"
)

// Entry is one value stored under a key. The substrate must support
// multiple entries per key (§II: "we only require the underlying
// distributed data storage system to allow for the registration of
// multiple entries using the same key").
type Entry struct {
	// Kind partitions a node's store (e.g. "index", "data").
	Kind string
	// Value is the opaque payload.
	Value string
}

// EntryHash is the 64-bit hash of one entry that Digest sums: FNV-1a
// over the kind, a zero byte and the value, then a 64-bit finalizer so
// that every input bit reaches every output bit. It is unseeded, so
// every process computes the same value.
func EntryHash(e Entry) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(e.Kind); i++ {
		h = (h ^ uint64(e.Kind[i])) * prime
	}
	h *= prime // the zero byte between kind and value
	for i := 0; i < len(e.Value); i++ {
		h = (h ^ uint64(e.Value[i])) * prime
	}
	// MurmurHash3's fmix64.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb53cc5a49e63
	h ^= h >> 33
	return h
}

// Digest summarizes an entry set: the sum of its entries' EntryHash,
// wrapping. A sum does not depend on order, so a store can keep it up
// to date entry by entry — add an entry's hash when it is stored,
// subtract it when it goes — and two holders of one set agree on it
// however the set was built. The empty set digests to 0.
func Digest(entries []Entry) uint64 {
	var d uint64
	for _, e := range entries {
		d += EntryHash(e)
	}
	return d
}

// Route reports where a routed operation landed and what it cost.
type Route struct {
	// Node is the address of the node responsible for the key.
	Node string
	// Hops is the number of inter-node routing messages used.
	Hops int
}

// NodeStats is the per-node storage accounting the evaluation reads.
type NodeStats struct {
	// Keys is the number of distinct keys stored.
	Keys int
	// EntriesByKind counts stored entries per kind.
	EntriesByKind map[string]int
	// BytesByKind sums payload bytes (plus per-key overhead) per kind.
	BytesByKind map[string]int64
}

// Network is the key-to-node substrate the index layer runs on.
// Implementations route from an arbitrary live node and are free to pick
// the contact point (the paper's user contacts "the node n responsible
// for h(q)" through whatever entry point the overlay provides).
type Network interface {
	// Put stores an entry on the node responsible for key. Storing the
	// same (Kind, Value) twice under one key is idempotent.
	Put(key keyspace.Key, e Entry) (Route, error)
	// Get returns all entries stored under key.
	Get(key keyspace.Key) ([]Entry, Route, error)
	// Remove deletes the exact entry under key, reporting whether it
	// existed.
	Remove(key keyspace.Key, e Entry) (bool, error)
	// Addrs lists the live node addresses in a stable order.
	Addrs() []string
	// StatsOf returns the storage accounting of one node.
	StatsOf(addr string) (NodeStats, error)
	// Size returns the number of live nodes.
	Size() int
}

// KeyEntry is one (key, entry) pair of a batched mutation.
type KeyEntry struct {
	// Key is the DHT key the entry is stored under.
	Key keyspace.Key
	// Entry is the stored value.
	Entry Entry
}

// BatchNetwork is the optional bulk-mutation extension of Network: a
// substrate that implements it applies many (key, entry) mutations in
// one round — grouping items by owner so each responsible node receives
// a single batched message, with bounded parallel fan-out across
// distinct owners. Callers type-assert; substrates without it are
// driven through the per-entry Network methods instead, so simulation
// substrates keep their one-RPC-per-insert accounting.
type BatchNetwork interface {
	// PutBatch stores every item (same idempotency contract as Put).
	// Puts are idempotent, so a caller may retry a failed batch whole.
	PutBatch(ctx context.Context, items []KeyEntry) error
	// RemoveBatch deletes every item, returning how many entries
	// actually existed and were removed.
	RemoveBatch(ctx context.Context, items []KeyEntry) (int, error)
}

// ContextNetwork is the optional deadline-aware extension of Network.
// A substrate that implements it threads the caller's budget through its
// reads, so retries, failover probes and backoff sleeps stop the moment
// the budget is spent. Callers type-assert: substrates without it get a
// best-effort up-front ctx check instead.
type ContextNetwork interface {
	// GetCtx is Get bounded by ctx.
	GetCtx(ctx context.Context, key keyspace.Key) ([]Entry, Route, error)
}

// ConditionalNetwork is the optional conditional-read extension of
// Network, for a caller that keeps what it read: it offers the Digest
// of the entry set it holds for a key, and the node that serves the key
// answers "unchanged" instead of shipping a set with that digest. It is
// its own interface so that substrates and decorators without it keep
// compiling; callers type-assert, and substrates without it are read
// with GetCtx/Get.
type ConditionalNetwork interface {
	// GetUnlessCtx is GetCtx for a caller holding a set whose Digest is
	// digest (never 0). unchanged reports that the key's live set,
	// non-empty, had that digest when it was read; entries are then nil
	// and the caller serves what it holds. Otherwise it returns what
	// GetCtx would. A read that could not be made conditional (a hedge,
	// a failover) returns entries, never unchanged.
	GetUnlessCtx(ctx context.Context, key keyspace.Key, digest uint64) (entries []Entry, route Route, unchanged bool, err error)
}

// GetResult is one key's outcome of a batched read: what Get would have
// returned for that key alone.
type GetResult struct {
	// Entries are the entries stored under the key.
	Entries []Entry
	// Route names the node that answered for the key.
	Route Route
	// Err is the key's own failure; other keys of the batch are
	// unaffected by it.
	Err error
}

// BatchGetNetwork is the optional bulk-read extension of Network, the
// read-side counterpart of BatchNetwork: a substrate that implements it
// fetches many independent keys in one round, grouping them by owner so
// each responsible node receives a single message — a frontier of k
// keys on m owners costs m messages instead of k. It is its own
// interface rather than a third BatchNetwork method so that a decorator
// written against BatchNetwork keeps compiling; callers type-assert,
// and substrates without it are read one GetCtx/Get at a time.
type BatchGetNetwork interface {
	// GetBatch reads every key, with at most parallel per-owner
	// messages in flight. The result has one element per key, in the
	// order given (a repeated key gets the same answer at each
	// position). A key fails alone: its error never hides another
	// key's entries, and a key that could not be read reports an error,
	// never an empty success.
	GetBatch(ctx context.Context, keys []keyspace.Key, parallel int) []GetResult
}

// PruneNetwork is the optional remove-and-report extension of Network:
// RemoveBatch whose answer is the emptiness probe an unpublish would
// otherwise send after it. The index layer deletes a mapping (q; t)
// only once t leads nowhere (§IV-C), so every remove is followed by the
// question "does that key hold anything now?"; a substrate that
// implements Prune answers it from inside the remove, at the node that
// holds the key. It is its own interface rather than a changed
// RemoveBatch so that a decorator written against BatchNetwork keeps
// compiling; callers type-assert, and substrates without it get one
// Remove per item and one Get per key that matters.
type PruneNetwork interface {
	// Prune deletes every item and returns, in the order the keys first
	// appear in items, each key of the batch that holds no entry once
	// its removals are applied. Emptiness is the key's state, not the
	// batch's effect: a key that was already empty is returned although
	// nothing was removed from it, which is what lets a caller repeat an
	// interrupted cleanup and have it finish. On error the keys are
	// those of the groups that did succeed.
	Prune(ctx context.Context, items []KeyEntry) (emptied []keyspace.Key, err error)
}
