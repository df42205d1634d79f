// Package wire implements a live, message-passing Chord node: long-running
// peers that join, stabilize, repair fingers and transfer keys by
// exchanging messages over a pluggable transport. Two transports are
// provided — an in-memory one for deterministic tests and a framed TCP
// one for real deployments — and a Cluster handle adapts a set of live
// nodes to the overlay contract so the paper's indexing layer runs
// unchanged on top of a real network. A MemRing is such a ring on the
// in-memory transport whose maintenance runs only when driven by hand:
// the paper's experiments run on it.
package wire

import (
	"errors"
	"fmt"
	"io"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// Op enumerates the protocol operations.
type Op int

// Protocol operations.
const (
	OpPing Op = iota + 1
	OpFindSuccessor
	OpGetPredecessor
	OpGetSuccessor
	OpNotify
	OpPut
	OpGet
	OpRemove
	OpTransfer
	OpStats
	_ // retired, never sent or served; later opcodes keep their values
	OpPutReplica
	OpRemoveReplica
	OpRepairSync
	OpPutBatch
	OpRemoveBatch
	OpMerge
	OpGetBatch
)

// String returns the wire name of the operation.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpFindSuccessor:
		return "find-successor"
	case OpGetPredecessor:
		return "get-predecessor"
	case OpGetSuccessor:
		return "get-successor"
	case OpNotify:
		return "notify"
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpRemove:
		return "remove"
	case OpTransfer:
		return "transfer"
	case OpStats:
		return "stats"
	case OpPutReplica:
		return "put-replica"
	case OpRemoveReplica:
		return "remove-replica"
	case OpRepairSync:
		return "repair-sync"
	case OpPutBatch:
		return "put-batch"
	case OpRemoveBatch:
		return "remove-batch"
	case OpMerge:
		return "merge"
	case OpGetBatch:
		return "get-batch"
	default:
		return "unknown"
	}
}

// Tombstone is a deletion record: proof that an exact entry was removed
// from a key, kept so anti-entropy cannot resurrect the entry from a
// stale copy (a replica that missed the removal, or the far side of a
// healed partition). While a tombstone is live, re-adding the identical
// entry is suppressed everywhere; tombstones are garbage-collected
// after tombstoneTTL, which must exceed the longest partition or
// downtime a stale copy can hide behind.
//
// A tombstone names the removed entry by its overlay.EntryHash, not
// whole: every reader of it only asks whether an entry's hash matches,
// so the record is 16 bytes in memory, on disk and on the wire
// (DESIGN.md §46). Two entries of one key sharing a hash within the TTL
// is a 64-bit collision, which the design accepts.
type Tombstone struct {
	// Hash is overlay.EntryHash of the removed entry.
	Hash uint64
	// At is the removal's wall-clock time in Unix nanoseconds. It only
	// schedules garbage collection — conflict resolution never compares
	// clocks across nodes; merges keep the latest At so a tombstone's
	// TTL restarts when it is re-asserted.
	At int64
}

// TombstoneOf is the tombstone recording e's removal at at.
func TombstoneOf(e overlay.Entry, at int64) Tombstone {
	return Tombstone{Hash: entryHash(e), At: at}
}

// String prints the tombstone's digest in hex and its time.
func (t Tombstone) String() string { return fmt.Sprintf("%016x@%d", t.Hash, t.At) }

// KeyEntries carries one key's entries (and deletion records) in a
// transfer.
type KeyEntries struct {
	Key     keyspace.Key
	Entries []overlay.Entry
	// Tombs carries the key's tombstones alongside its live entries, so
	// repair answers and ships, transfers and replication move deletions
	// with the data.
	Tombs []Tombstone
}

// KeyDigest summarizes one key's entry set for the anti-entropy repair
// protocol: replicas compare digests instead of shipping entries, so a
// converged replica set costs one small message per repair round.
type KeyDigest struct {
	Key    keyspace.Key
	Digest uint64
}

// Response codes carried in Message.Code. A plain application error
// travels as Err text alone (CodeOK); codes distinguish errors the client
// must treat specially — an overload NACK arrives as a *successful*
// transport exchange, so without a typed code the retry layer would treat
// it like any remote failure and retry into the hot node — and the one
// verdict a successful reply can carry instead of a payload.
const (
	// CodeOK marks a normal response (zero value, never set explicitly).
	CodeOK = 0
	// CodeOverload marks a response shed by admission control. The call
	// must not be retried against the same peer and must not count as a
	// connectivity failure.
	CodeOverload = 1
	// CodeUnchanged marks the reply to a conditional OpGet whose key's
	// live set, non-empty, has the digest the request offered: the
	// reply carries no entries, and the client serves the set it holds
	// (DESIGN.md §37).
	CodeUnchanged = 2
)

// Message is the single request/response envelope.
type Message struct {
	Op   Op
	Key  keyspace.Key
	Addr string
	// TTL bounds forwarding: of recursive FindSuccessor routing, and of
	// batches and single-key requests that carry keys the receiver does
	// not own. On OpGet, OpPut and OpRemove it also selects the form:
	// TTL > 0 is owner-addressed (check ownership, forward a foreign
	// key), TTL 0 acts on exactly the addressed node's copy.
	TTL int
	// Hops counts forwarding steps, echoed back in responses. With Addr
	// naming the node that served, it lets the sender of an
	// owner-addressed request learn who answered and how far away.
	Hops int
	// BudgetMicros carries the caller's remaining deadline budget in
	// microseconds (0 = no deadline). Admission control sheds requests
	// whose budget cannot cover the expected service time.
	BudgetMicros int64
	// Code classifies responses (CodeOK, CodeOverload, CodeUnchanged).
	Code    int
	Entry   overlay.Entry
	Entries []overlay.Entry
	KV      []KeyEntries
	// Digests carries the anti-entropy offer (OpRepairSync requests),
	// the keys the replica wants shipped (OpRepairSync responses, digest
	// field unused) and a conditional read's offer (OpGet requests: one
	// element, Key's, with the overlay.Digest of the set the client
	// holds).
	Digests []KeyDigest
	// Addrs carries successor lists.
	Addrs []string
	Ok    bool
	Err   string
	// Stats payload (OpStats responses).
	Keys          int
	EntriesByKind map[string]int
	BytesByKind   map[string]int64
}

// Handler processes one request and produces one response.
type Handler func(req Message) Message

// Transport moves messages between addresses.
type Transport interface {
	// Listen registers a handler for an address and returns a closer that
	// unregisters it. For the TCP transport, addr "host:0" picks a free
	// port; the chosen address is returned.
	Listen(addr string, handler Handler) (actual string, closer io.Closer, err error)
	// Call sends a request to addr and waits for the response.
	Call(addr string, req Message) (Message, error)
}

// inProcessTransport is implemented by the transports whose calls run
// the handler on the caller's goroutine and wait on nothing but it:
// MemTransport, and RetryingTransport over one. A wrapper that does not
// implement it hides the property, and the cluster then fans out as
// over a network.
type inProcessTransport interface {
	inProcess() bool
}

// deliversInProcess reports whether calls through t run in process.
func deliversInProcess(t Transport) bool {
	ip, ok := t.(inProcessTransport)
	return ok && ip.inProcess()
}

// Errors of the wire layer.
var (
	// ErrUnreachable is returned when a peer cannot be contacted.
	ErrUnreachable = errors.New("wire: peer unreachable")
	// ErrStopped is returned by operations on a stopped node.
	ErrStopped = errors.New("wire: node stopped")
	// ErrTTLExceeded is returned when routing fails to converge.
	ErrTTLExceeded = errors.New("wire: routing TTL exceeded")
	// ErrCircuitOpen is returned by the retry layer when a peer's circuit
	// breaker is open: the peer failed repeatedly and calls to it fail
	// fast instead of burning the caller's budget on fresh timeouts.
	ErrCircuitOpen = errors.New("wire: circuit open")
	// ErrOverload is returned when a peer's admission control sheds the
	// request. The peer is alive — this is backpressure, not a failure:
	// it must never be retried against the same peer, must not count
	// toward unreachable-style failure detection, and must not cause the
	// ring to route around the node.
	ErrOverload = errors.New("wire: peer overloaded")
)

// remoteError converts an error carried in a response into a Go error.
func remoteError(m Message) error {
	if m.Err == "" {
		return nil
	}
	if m.Code == CodeOverload {
		return fmt.Errorf("%w: %s", ErrOverload, m.Err)
	}
	return fmt.Errorf("wire: remote: %s", m.Err)
}
