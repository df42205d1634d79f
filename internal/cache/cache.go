// Package cache implements the paper's adaptive distributed cache (§IV-C,
// §V-D): per-node stores of "shortcut" entries that map a generic query
// directly to the descriptor of a target file, created along the lookup
// paths of successful queries. With an LRU replacement policy, popular
// files stay well represented and become reachable in few hops.
package cache

import (
	"container/list"
	"slices"
	"strings"

	"dhtindex/internal/telemetry"
)

// Policy selects where shortcuts are created after a successful lookup
// (§V-D).
type Policy int

const (
	// None disables caching.
	None Policy = iota + 1
	// Multi creates shortcuts on every node along the lookup path;
	// per-node capacity is unbounded.
	Multi
	// Single creates a shortcut only on the first node contacted;
	// per-node capacity is unbounded.
	Single
	// LRU behaves like Single but bounds each node's shortcut count,
	// evicting the least-recently-used entry when full.
	LRU
)

// String returns the label used in the paper's figures.
func (p Policy) String() string {
	switch p {
	case None:
		return "no-cache"
	case Multi:
		return "multi-cache"
	case Single:
		return "single-cache"
	case LRU:
		return "lru"
	default:
		return "unknown"
	}
}

// Store holds the shortcut entries of one node. A "cached key" in the
// paper's accounting is one (query → target) pair, named by the
// canonical forms of both; a target is kept as a T of form form(t).
// The zero Store is not usable; construct with NewStore or NewStoreOf.
type Store[T any] struct {
	capacity int // 0 = unbounded
	form     func(T) string
	order    *list.List
	byPair   map[pair]*list.Element
	// byQuery holds each query's targets in canonical-form order, cap ==
	// len. A stored slice is replaced, never modified.
	byQuery map[string][]T
	// evictions is nil unless SetEvictionCounter was called; Inc on a
	// nil counter is a no-op.
	evictions *telemetry.Counter
}

type pair struct {
	query, target string
}

// NewStore creates a shortcut store of canonical forms. capacity 0 means
// unbounded; the paper's LRU policies use 10, 20 and 30.
func NewStore(capacity int) *Store[string] {
	return NewStoreOf(capacity, func(s string) string { return s })
}

// NewStoreOf creates a shortcut store of T values, as NewStore does.
func NewStoreOf[T any](capacity int, form func(T) string) *Store[T] {
	return &Store[T]{
		capacity: capacity,
		form:     form,
		order:    list.New(),
		byPair:   make(map[pair]*list.Element),
		byQuery:  make(map[string][]T),
	}
}

// Add inserts the shortcut (query → target). It reports whether a new
// entry was created (false when the pair was already cached, in which case
// it is only freshened). When the store is full, the least-recently-used
// entry is evicted first.
func (s *Store[T]) Add(query string, target T) bool {
	p := pair{query: query, target: s.form(target)}
	if el, ok := s.byPair[p]; ok {
		s.order.MoveToFront(el)
		return false
	}
	if s.capacity > 0 && s.order.Len() >= s.capacity {
		s.evictOldest()
	}
	s.byPair[p] = s.order.PushFront(p)
	targets := s.byQuery[query]
	i, _ := slices.BinarySearchFunc(targets, p.target, s.compareForm)
	s.byQuery[query] = slices.Clip(slices.Concat(targets[:i], []T{target}, targets[i:]))
	return true
}

func (s *Store[T]) compareForm(t T, form string) int { return strings.Compare(s.form(t), form) }

// SetEvictionCounter makes the store count LRU evictions on c (pass the
// shared telemetry counter; nil disables counting again).
func (s *Store[T]) SetEvictionCounter(c *telemetry.Counter) { s.evictions = c }

func (s *Store[T]) evictOldest() {
	p := s.order.Remove(s.order.Back()).(pair)
	s.evictions.Inc()
	delete(s.byPair, p)
	targets := s.byQuery[p.query]
	if len(targets) == 1 {
		delete(s.byQuery, p.query)
		return
	}
	i, _ := slices.BinarySearchFunc(targets, p.target, s.compareForm)
	s.byQuery[p.query] = slices.Clip(slices.Concat(targets[:i], targets[i+1:]))
}

// Targets returns the cached targets for a query (the node's response
// from its cache) in canonical-form order. The slice is the store's own,
// read-only, and stays unchanged whatever the store does later. Reading
// does not refresh recency — only Touch does, when a shortcut is
// actually followed.
func (s *Store[T]) Targets(query string) []T { return s.byQuery[query] }

// Contains reports whether the exact shortcut pair is cached; target is
// its canonical form.
func (s *Store[T]) Contains(query, target string) bool {
	_, ok := s.byPair[pair{query: query, target: target}]
	return ok
}

// Touch freshens the recency of a shortcut that was just followed;
// target is its canonical form.
func (s *Store[T]) Touch(query, target string) {
	if el, ok := s.byPair[pair{query: query, target: target}]; ok {
		s.order.MoveToFront(el)
	}
}

// Len returns the number of cached shortcut pairs ("cached keys").
func (s *Store[T]) Len() int { return s.order.Len() }

// Full reports whether a bounded store is at capacity.
func (s *Store[T]) Full() bool { return s.capacity > 0 && s.order.Len() >= s.capacity }
