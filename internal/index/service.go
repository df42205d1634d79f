// Package index implements the paper's primary contribution (§IV): a
// distributed indexing service layered on a DHT that maps broad queries to
// more specific queries. Indexes hold query-to-query mappings (q; qᵢ) with
// q ⊒ qᵢ; by recursively looking up the returned queries a user walks the
// covering partial order down to a most specific descriptor (MSD) and the
// file it identifies.
//
// The package provides the index service itself (Service), the three
// indexing schemes of the evaluation plus the hierarchical example of
// Fig. 4 (Scheme), the directed and automated lookup procedures with the
// generalization/specialization fallback (Searcher), and index maintenance
// with recursive cleanup (§IV-C).
package index

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dhtindex/internal/cache"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/xpath"
)

// Entry kinds in the DHT store.
const (
	// KindIndex marks a query-to-query mapping; the value is the covered
	// query's canonical form.
	KindIndex = "index"
	// KindData marks a stored file reference; the value is the file name.
	KindData = "data"
)

// Errors returned by the index layer.
var (
	// ErrNotCovering is returned when inserting a mapping (q; qi) whose
	// covering requirement q ⊒ qi does not hold — the property that makes
	// the system "resilient to arbitrary linking" (§IV-D).
	ErrNotCovering = errors.New("index: mapping source does not cover target")
	// ErrSelfMapping is returned for a mapping from a query to itself.
	ErrSelfMapping = errors.New("index: self mapping is useless")
	// ErrNotFound is returned by directed lookups that exhaust the index
	// without reaching the target.
	ErrNotFound = errors.New("index: target not reachable from query")
)

// Service is the distributed index layered on a DHT network. It also owns
// the per-node shortcut caches of the adaptive caching mechanism (§IV-C) —
// cache entries are node-local state, kept outside the DHT store so that
// the paper's "regular keys" vs "cached keys" accounting stays separate.
type Service struct {
	net      overlay.Substrate
	policy   cache.Policy
	capacity int

	// The parallel search fan-out and concurrent clients issue LookupCtx
	// calls against one service. Its shared mutable state is split so
	// that two lookups meet on a lock only when they touch the same
	// node's shortcuts or the same shard: each node's shortcut store has
	// its own lock, and the kept lists are stateShards shards with a
	// lock apiece. The parse memo has one lock, which no warm lookup
	// takes. A lock is held for one store call or one map access, never
	// across another lock, a substrate call, a parse or a sort.

	// caches maps a node's address to its shortcut store. Lookups load it
	// without a lock; a node's first shortcut publishes a copy with its
	// store added, under cachesMu.
	cachesMu sync.Mutex
	caches   atomic.Pointer[map[string]*nodeCache]

	// memo interns parsed queries by form, so that kept lists and
	// shortcut stores share one parse of a form: it parses an index entry
	// when its key's list is rebuilt, and an installed shortcut keeps its
	// parse of the target. Warm lookups do not read it. A canonical form
	// and the query parsed from it share their bytes (xpath.Parse).
	memoMu sync.Mutex
	memo   map[string]xpath.Query

	// lists keeps, per key, the parsed index list of the last entry set
	// read under it that held index entries, all canonical and in
	// canonical order (the wire stores' order contract), sharded
	// by the key's first byte. A lookup whose index entries equal a kept
	// list's forms one for one serves that list as its Response.Index;
	// any difference rebuilds it through the memo (DESIGN.md §34). With
	// each list goes the digest of the set it was built from, which a
	// conditional lookup offers the key's owner: an "unchanged" answer
	// serves the list with no entries read at all (DESIGN.md §37). A
	// kept list is never modified: a rebuild stores a new one. A shard
	// is taken shared to read a list, and exclusively to store or drop
	// one; a removal this service makes under a key drops its list.
	lists [stateShards]listShard

	// vocabulary, when enabled, registers every published descriptor's
	// values in the field dictionaries used for fuzzy correction (§VI).
	vocabulary bool

	// tel is nil until Instrument is called; its record methods are
	// nil-safe no-ops, keeping the hot paths unconditional.
	tel *svcTelemetry
}

// stateShards is how many shards the kept lists are split into (a power
// of two).
const stateShards = 64

// nodeCache is one node's shortcut store and the lock that guards it
// (cache.Store is not safe for concurrent use by itself).
type nodeCache struct {
	mu    sync.Mutex
	store *cache.Store[xpath.Query]
}

// listShard is one shard of Service.lists. The padding keeps two shards'
// locks off one cache line.
type listShard struct {
	mu    sync.RWMutex
	lists map[keyspace.Key]keptList
	_     [32]byte
}

// listShard returns the shard that holds key's kept list.
func (s *Service) listShard(key keyspace.Key) *listShard {
	return &s.lists[key[0]%stateShards]
}

// keptList is one key's kept index list (see Service.lists).
type keptList struct {
	// index is the parsed list, in canonical order, clipped.
	index []xpath.Query
	// digest is overlay.Digest of the entry set the list was built
	// from, or 0 when that set held data entries, which the list does
	// not carry: such a list is never offered.
	digest uint64
}

// svcTelemetry holds the index layer's registry instruments.
type svcTelemetry struct {
	lookups      *telemetry.Counter
	finds        *telemetry.Counter
	findFailures *telemetry.Counter
	cacheHits    *telemetry.Counter
	cacheMisses  *telemetry.Counter
	shortcuts    *telemetry.Counter
	evictions    *telemetry.Counter
	genProbes    *telemetry.Counter
	nonIndexed   *telemetry.Counter
	incomplete   *telemetry.Counter
	interactions *telemetry.Histogram
}

// evictionCounter returns the shared LRU-eviction counter (nil when the
// service is uninstrumented).
func (t *svcTelemetry) evictionCounter() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.evictions
}

// recordLookup books one lookup(q) primitive (no-op on nil).
func (t *svcTelemetry) recordLookup() {
	if t == nil {
		return
	}
	t.lookups.Inc()
}

// recordShortcut books one installed shortcut entry (no-op on nil).
func (t *svcTelemetry) recordShortcut() {
	if t == nil {
		return
	}
	t.shortcuts.Inc()
}

// recordFind books a completed directed search (no-op on nil).
func (t *svcTelemetry) recordFind(trace Trace, err error) {
	if t == nil {
		return
	}
	t.finds.Inc()
	t.genProbes.Add(int64(trace.GeneralizationProbes))
	if trace.NonIndexed {
		t.nonIndexed.Inc()
	}
	if trace.Incomplete {
		t.incomplete.Inc()
	}
	if err != nil || !trace.Found {
		t.findFailures.Inc()
		return
	}
	t.interactions.Observe(float64(trace.Interactions))
	if trace.CacheHit {
		t.cacheHits.Inc()
	} else {
		t.cacheMisses.Inc()
	}
}

// New creates an index service over any substrate satisfying the overlay
// contract (the live Chord ring of wire.StartMemRing or wire.Cluster,
// Pastry via pastry.AsOverlay, ...), taken once through
// overlay.AsSubstrate: a network that is not an overlay.Substrate is
// driven one message per key.
// policy and lruCapacity configure the shortcut caches (capacity is used
// only with cache.LRU).
func New(net overlay.Network, policy cache.Policy, lruCapacity int) *Service {
	s := &Service{
		net:      overlay.AsSubstrate(net),
		policy:   policy,
		capacity: lruCapacity,
		memo:     make(map[string]xpath.Query),
	}
	s.caches.Store(&map[string]*nodeCache{})
	for i := range s.lists {
		s.lists[i].lists = make(map[keyspace.Key]keptList)
	}
	return s
}

// Instrument starts publishing the index layer's counters and the
// interactions-per-query histogram on reg. The optional labels (e.g.
// telemetry.L("scheme", "super")) distinguish services sharing one
// registry. Instrument is not safe to call concurrently with lookups;
// call it once at setup time.
func (s *Service) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	if reg == nil {
		return
	}
	s.tel = &svcTelemetry{
		lookups: reg.Counter("index_lookups_total",
			"lookup(q) primitives issued against the distributed index.", labels...),
		finds: reg.Counter("index_finds_total",
			"Directed searches started (Searcher.Find).", labels...),
		findFailures: reg.Counter("index_find_failures_total",
			"Directed searches that failed to retrieve their target.", labels...),
		cacheHits: reg.Counter("index_cache_hits_total",
			"Successful searches short-circuited by a shortcut cache.", labels...),
		cacheMisses: reg.Counter("index_cache_misses_total",
			"Successful searches that walked the index without a shortcut.", labels...),
		shortcuts: reg.Counter("index_shortcuts_installed_total",
			"Shortcut cache entries created after successful searches.", labels...),
		evictions: reg.Counter("cache_evictions_total",
			"Shortcut entries displaced by the LRU replacement policy.", labels...),
		genProbes: reg.Counter("index_generalization_probes_total",
			"Generalization candidates looked up by the fallback.", labels...),
		nonIndexed: reg.Counter("index_non_indexed_queries_total",
			"Queries absent from every index (Table I's recoverable errors).", labels...),
		incomplete: reg.Counter("index_incomplete_lookups_total",
			"Searches degraded to a partial result because a hop failed inside the budget.", labels...),
		interactions: reg.Histogram("index_interactions_per_query",
			"User-system interaction rounds per successful search (Fig. 11).",
			telemetry.InteractionBuckets, labels...),
	}
}

// Network returns the underlying substrate.
func (s *Service) Network() overlay.Network { return s.net }

// Policy returns the configured cache policy.
func (s *Service) Policy() cache.Policy { return s.policy }

// Publish stores the file reference under the key of the descriptor's most
// specific query and returns that query. This is the "Publication index" of
// Fig. 5 — the raw DHT storage layer.
func (s *Service) Publish(file string, d descriptor.Descriptor) (xpath.Query, error) {
	msd := xpath.MostSpecific(d)
	if msd.IsZero() {
		return xpath.Query{}, fmt.Errorf("index: publish %q: %w", file, xpath.ErrEmptyQuery)
	}
	if _, err := s.net.Put(msd.Key(), overlay.Entry{Kind: KindData, Value: file}); err != nil {
		return xpath.Query{}, fmt.Errorf("index: publish %q: %w", file, err)
	}
	if s.vocabulary {
		if err := s.RegisterVocabulary(d); err != nil {
			return xpath.Query{}, err
		}
	}
	return msd, nil
}

// InsertMapping adds the index entry (q; target) on the node responsible
// for h(q). It enforces the covering requirement.
func (s *Service) InsertMapping(q, target xpath.Query) error {
	if q.Equal(target) {
		return fmt.Errorf("%w: %s", ErrSelfMapping, q)
	}
	if !q.Covers(target) {
		return fmt.Errorf("%w: (%s ; %s)", ErrNotCovering, q, target)
	}
	if _, err := s.net.Put(q.Key(), overlay.Entry{Kind: KindIndex, Value: target.String()}); err != nil {
		return fmt.Errorf("index: insert (%s ; %s): %w", q, target, err)
	}
	return nil
}

// RemoveMapping deletes the index entry (q; target), reporting whether it
// existed, and drops q's kept list.
func (s *Service) RemoveMapping(q, target xpath.Query) (bool, error) {
	removed, err := s.net.Remove(q.Key(), overlay.Entry{Kind: KindIndex, Value: target.String()})
	s.forget(overlay.KeyEntry{Key: q.Key()})
	if err != nil {
		return false, fmt.Errorf("index: remove (%s ; %s): %w", q, target, err)
	}
	return removed, nil
}

// Response is one user-system interaction: the answer of the node
// responsible for a query's key.
type Response struct {
	// Node is the address of the serving node.
	Node string
	// Hops is the DHT routing distance from the contact point.
	Hops int
	// Index lists the regular index results: queries covered by the asked
	// query, in canonical order. It may be shared with other responses
	// for the same key and is read-only (its cap equals its len, so an
	// append copies it).
	Index []xpath.Query
	// Cached lists shortcut targets from the node's adaptive cache, in
	// canonical order. Like Index, it may be shared and is read-only.
	Cached []xpath.Query
	// Files lists file references when the asked query is a published MSD.
	Files []string
	// Bytes is the full serialized response size (the paper's
	// response-driven traffic measure): cache portion, index entries and
	// data references.
	Bytes int64
	// CachePortion is the bytes of the shortcut portion. Responses are
	// two-phase — the (small) cache content is delivered first, and a
	// user that jumps via a shortcut never pulls the index content — so
	// lookups that hit only transfer CachePortion plus data.
	CachePortion int64
}

// Lookup performs one interaction: it routes to the node responsible for
// h(q) and returns everything that node knows about q — index mappings,
// cache shortcuts, and data. This is the paper's "lookup(q)" primitive
// plus the publication-layer read.
func (s *Service) Lookup(q xpath.Query) (Response, error) {
	return s.LookupCtx(context.Background(), q)
}

// LookupCtx is Lookup bounded by the caller's deadline budget, which
// the substrate threads into its retry and failover machinery (or, on
// overlay.PerKey, checks once up front). Any returned error is
// transport-level (the substrate read is the only error source), which
// is what lets the searcher degrade such failures to partial results.
//
// When the key has a kept list with a digest, the read is conditional:
// an owner whose set still has that digest answers "unchanged", and the
// lookup serves the list it offered — that one, whatever a concurrent
// lookup kept since — without reading an entry.
func (s *Service) LookupCtx(ctx context.Context, q xpath.Query) (Response, error) {
	key := q.Key()
	kept := s.kept(key)
	var got overlay.GetResult
	if kept.digest != 0 {
		got.Entries, got.Route, got.Unchanged, got.Err = s.net.GetUnlessCtx(ctx, key, kept.digest)
	} else {
		got.Entries, got.Route, got.Err = s.net.GetCtx(ctx, key)
	}
	return s.respond(q, got, kept)
}

// lookupOut is one lookup's outcome within a batch.
type lookupOut struct {
	resp Response
	err  error
}

// lookupBatch performs one interaction per query of qs — independent
// lookups, such as one level of the automated search's frontier — and
// returns their outcomes in order. With parallel ≤ 1 (or a single
// query) it is LookupCtx one query at a time, the paper's model, and it
// issues nothing further once ctx is spent. Otherwise the substrate
// reads happen together, in one GetBatch: one message per owner on the
// live ring, up to parallel concurrent single reads on overlay.PerKey.
// Each read offers the digest of its key's kept list, as LookupCtx's
// does, and every response is built by the function LookupCtx uses, so
// what a query's lookup returns does not depend on how its entries were
// fetched. The queries of a batch are distinct (a frontier level, a
// wave of generalizations), so no key repeats with two offers.
func (s *Service) lookupBatch(ctx context.Context, qs []xpath.Query, parallel int) []lookupOut {
	outs := make([]lookupOut, len(qs))
	if len(qs) == 1 || parallel <= 1 {
		for i, q := range qs {
			outs[i].resp, outs[i].err = s.LookupCtx(ctx, q)
			if outs[i].err != nil && ctx.Err() != nil {
				for j := i + 1; j < len(qs); j++ {
					outs[j].err = ctx.Err()
				}
				break
			}
		}
		return outs
	}
	keys := make([]keyspace.Key, len(qs))
	kept := make([]keptList, len(qs))
	var offers []uint64
	for i, q := range qs {
		keys[i] = q.Key()
		kept[i] = s.kept(keys[i])
		if kept[i].digest != 0 {
			if offers == nil {
				offers = make([]uint64, len(qs))
			}
			offers[i] = kept[i].digest
		}
	}
	gets := s.net.GetBatch(ctx, keys, offers, parallel)
	for i, q := range qs {
		outs[i].resp, outs[i].err = s.respond(q, gets[i], kept[i])
	}
	return outs
}

// respond turns one substrate read into the lookup's Response: the
// node's shortcuts for q as its store holds them, the parsed index
// entries in canonical order (see indexList), the file references and
// the byte accounting. It books the lookup. kept is q's kept list as it stood when the read was
// issued, which offered its digest when that is not 0; got.Unchanged
// says the owner answered that the key's set still has that digest, and
// kept is then served as the key's whole set.
func (s *Service) respond(q xpath.Query, got overlay.GetResult, kept keptList) (resp Response, err error) {
	s.tel.recordLookup()
	if got.Err != nil {
		return Response{}, fmt.Errorf("index: lookup %s: %w", q, got.Err)
	}
	entries := got.Entries
	resp.Node, resp.Hops = got.Route.Node, got.Route.Hops
	if s.policy != cache.None {
		if nc := s.nodeCache(resp.Node); nc != nil {
			nc.mu.Lock()
			resp.Cached = nc.store.Targets(q.String())
			nc.mu.Unlock()
		}
	}
	nIndex := 0
	for _, e := range entries {
		switch e.Kind {
		case KindIndex:
			nIndex++
		case KindData:
			resp.Files = append(resp.Files, e.Value)
			resp.Bytes += int64(len(e.Value))
		}
	}
	switch {
	case got.Unchanged:
		resp.Index = kept.index
		for _, q := range kept.index {
			resp.Bytes += int64(len(q.String()))
		}
	case nIndex > 0:
		var indexBytes int64
		resp.Index, indexBytes = s.indexList(q, entries, nIndex, len(resp.Files) == 0, kept)
		resp.Bytes += indexBytes
	case kept.index != nil:
		// The key holds no index entry now: its list goes.
		s.forget(overlay.KeyEntry{Key: q.Key()})
	}
	for _, target := range resp.Cached {
		resp.CachePortion += int64(len(target.String()))
	}
	resp.Bytes += resp.CachePortion
	return resp, nil
}

// indexList returns the parsed index entries of one key's entry set in
// canonical order, with the bytes of those that parsed; n (at least 1)
// counts the set's index entries. A set whose forms equal kept, the
// key's kept list when the read was issued, one for one is served that
// list, uncopied. A string compare decides it, and on a MemTransport
// ring the forms are the very strings the list was parsed from, so each
// compare is a pointer compare.
//
// Any other set is parsed entry by entry through the memo. The result
// is kept for the key when its entries are all canonical and strictly
// ascending: the wire stores keep each set in (Kind, Value) order, which
// for index entries is canonical-form order (DESIGN.md §18). A set of
// one entry is kept too: a kept list is what makes the key's next read
// conditional (DESIGN.md §42). The simulated substrates, foreign nodes
// and non-canonical stored values are not bound by that contract: their
// lists get sorted here, so a response reads the same whoever served
// it, and none is kept.
//
// A list is kept with its set's digest when the set holds no data
// entry (indexOnly), and hashing the set then is the one time the
// client hashes it. When kept's digest was offered and the set came
// back anyway (an owner whose set no longer has it, or overlay.PerKey,
// which never answers "unchanged") and the forms still match, only
// entries outside them can have changed the digest: a set that holds
// such entries is kept again under its new digest so the next offer
// can match.
func (s *Service) indexList(q xpath.Query, entries []overlay.Entry, n int, indexOnly bool, kept keptList) ([]xpath.Query, int64) {
	key := q.Key()
	if indexBytes, same := sameForms(kept.index, entries); same {
		if kept.digest != 0 && len(entries) != n {
			s.keep(key, keptList{index: kept.index, digest: keptDigest(entries, indexOnly)})
		}
		return kept.index, indexBytes
	}
	index := make([]xpath.Query, 0, n)
	var indexBytes int64
	keep := true
	for _, e := range entries {
		if e.Kind != KindIndex {
			continue
		}
		// A corrupted entry must not poison the lookup.
		target, ok := s.parseCached(e.Value)
		if !ok {
			keep = false
			continue
		}
		keep = keep && target.String() == e.Value &&
			(len(index) == 0 || index[len(index)-1].String() < e.Value)
		index = append(index, target)
		indexBytes += int64(len(e.Value))
	}
	if keep {
		// Every entry parsed, so len(index) == cap(index) == n.
		s.keep(key, keptList{index: index, digest: keptDigest(entries, indexOnly)})
		return index, indexBytes
	}
	if kept.index != nil {
		// The key's set no longer qualifies: its list goes.
		s.forget(overlay.KeyEntry{Key: key})
	}
	sortCanonical(index)
	return slices.Clip(index), indexBytes
}

// keptDigest is the digest a kept list built from entries is kept
// with: the set's overlay.Digest when it is index-only, else 0.
func keptDigest(entries []overlay.Entry, indexOnly bool) uint64 {
	if !indexOnly {
		return 0
	}
	return overlay.Digest(entries)
}

// kept returns key's kept list (the zero keptList if none).
func (s *Service) kept(key keyspace.Key) keptList {
	sh := s.listShard(key)
	sh.mu.RLock()
	kept := sh.lists[key]
	sh.mu.RUnlock()
	return kept
}

// keep stores key's kept list.
func (s *Service) keep(key keyspace.Key, kept keptList) {
	sh := s.listShard(key)
	sh.mu.Lock()
	sh.lists[key] = kept
	sh.mu.Unlock()
}

// forget drops the kept lists of the items' keys: the keys this service
// removes entries under. A list is a cache of what was read, so this is
// about memory, not correctness — a conditional lookup's digest already
// catches any change — and a removal must not leave behind a list no
// lookup may ever read again (ROADMAP item 17).
func (s *Service) forget(items ...overlay.KeyEntry) {
	for _, it := range items {
		sh := s.listShard(it.Key)
		sh.mu.Lock()
		delete(sh.lists, it.Key)
		sh.mu.Unlock()
	}
}

// sameForms reports whether entries' index entries are list's forms one
// for one and in order, and returns their bytes.
func sameForms(list []xpath.Query, entries []overlay.Entry) (int64, bool) {
	i := 0
	var indexBytes int64
	for _, e := range entries {
		if e.Kind != KindIndex {
			continue
		}
		if i == len(list) || e.Value != list[i].String() {
			return 0, false
		}
		indexBytes += int64(len(e.Value))
		i++
	}
	return indexBytes, i == len(list)
}

// sortCanonical puts qs in canonical-form order, sorting only when a
// linear check finds them out of order.
func sortCanonical(qs []xpath.Query) {
	if !slices.IsSortedFunc(qs, compareForms) {
		slices.SortFunc(qs, compareForms)
	}
}

func compareForms(a, b xpath.Query) int { return strings.Compare(a.String(), b.String()) }

// parseCached parses a query string through the memo. No lock is held
// while it parses.
func (s *Service) parseCached(value string) (xpath.Query, bool) {
	s.memoMu.Lock()
	q, known := s.memo[value]
	s.memoMu.Unlock()
	if !known {
		// An unparsable string memoizes the zero query (negative cache).
		parsed, _ := xpath.Parse(value)
		q = s.intern(value, parsed)
	}
	return q, !q.IsZero()
}

// intern returns the memo's query for value, first recording q there if
// the memo holds none.
func (s *Service) intern(value string, q xpath.Query) xpath.Query {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if have, ok := s.memo[value]; ok {
		return have
	}
	s.memo[value] = q
	return q
}

// nodeCache returns the shortcut store of a node (nil if none exists).
func (s *Service) nodeCache(nodeAddr string) *nodeCache {
	return (*s.caches.Load())[nodeAddr]
}

// addNodeCache returns the shortcut store of a node, creating it if none
// exists.
func (s *Service) addNodeCache(nodeAddr string) *nodeCache {
	s.cachesMu.Lock()
	defer s.cachesMu.Unlock()
	old := *s.caches.Load()
	if nc := old[nodeAddr]; nc != nil {
		return nc
	}
	capacity := 0
	if s.policy == cache.LRU {
		capacity = s.capacity
	}
	nc := &nodeCache{store: cache.NewStoreOf(capacity, xpath.Query.String)}
	nc.store.SetEvictionCounter(s.tel.evictionCounter())
	caches := make(map[string]*nodeCache, len(old)+1)
	for addr, c := range old {
		caches[addr] = c
	}
	caches[nodeAddr] = nc
	s.caches.Store(&caches)
	return nc
}

// AddShortcut installs the cache entry (q → target) on the given node,
// returning whether a new entry was created and the bytes of cache
// traffic it generated. The store keeps the memo's parse of target.
func (s *Service) AddShortcut(nodeAddr string, q, target xpath.Query) (bool, int64) {
	if s.policy == cache.None {
		return false, 0
	}
	nc := s.nodeCache(nodeAddr)
	if nc == nil {
		nc = s.addNodeCache(nodeAddr)
	}
	target = s.intern(target.String(), target)
	nc.mu.Lock()
	added := nc.store.Add(q.String(), target)
	nc.mu.Unlock()
	if added {
		s.tel.recordShortcut()
		return true, int64(len(target.String()))
	}
	return false, 0
}

// TouchShortcut freshens a followed shortcut's LRU recency.
func (s *Service) TouchShortcut(nodeAddr string, q, target xpath.Query) {
	if nc := s.nodeCache(nodeAddr); nc != nil {
		nc.mu.Lock()
		nc.store.Touch(q.String(), target.String())
		nc.mu.Unlock()
	}
}

// CacheStats summarizes the distributed cache state (Fig. 14's metrics).
type CacheStats struct {
	// Nodes is the number of live nodes considered.
	Nodes int
	// TotalKeys is the total number of cached shortcut pairs.
	TotalKeys int
	// MeanKeys is TotalKeys / Nodes.
	MeanKeys float64
	// MaxKeys is the largest per-node cache.
	MaxKeys int
	// FullFraction is the fraction of node caches at capacity (bounded
	// policies only).
	FullFraction float64
	// EmptyFraction is the fraction of nodes with no cached key at all.
	EmptyFraction float64
}

// CacheStats computes Fig. 14's cache-occupancy metrics over live nodes.
// It reads each node's store under that store's own lock, one node after
// another: while lookups run, the sums are not one snapshot across nodes.
func (s *Service) CacheStats() CacheStats {
	addrs := s.net.Addrs()
	stats := CacheStats{Nodes: len(addrs)}
	if stats.Nodes == 0 {
		return stats
	}
	full, empty := 0, 0
	for _, addr := range addrs {
		n, isFull := s.occupancy(addr)
		if n == 0 {
			empty++
			continue
		}
		stats.TotalKeys += n
		if n > stats.MaxKeys {
			stats.MaxKeys = n
		}
		if isFull {
			full++
		}
	}
	stats.MeanKeys = float64(stats.TotalKeys) / float64(stats.Nodes)
	stats.FullFraction = float64(full) / float64(stats.Nodes)
	stats.EmptyFraction = float64(empty) / float64(stats.Nodes)
	return stats
}

// occupancy returns how many shortcut pairs a node's store holds and
// whether it is at capacity (0 and false for a node with no store).
func (s *Service) occupancy(nodeAddr string) (n int, full bool) {
	nc := s.nodeCache(nodeAddr)
	if nc == nil {
		return 0, false
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.store.Len(), nc.store.Full()
}

// StorageStats summarizes regular (non-cache) storage (§V-B and Fig. 14's
// "regular keys per node").
type StorageStats struct {
	Nodes        int
	IndexEntries int
	DataEntries  int
	IndexBytes   int64
	// MeanEntriesPerNode counts index+data entries per node — the paper's
	// "keys stored per node".
	MeanEntriesPerNode float64
}

// StorageStats computes index storage metrics over live nodes.
func (s *Service) StorageStats() StorageStats {
	addrs := s.net.Addrs()
	stats := StorageStats{Nodes: len(addrs)}
	for _, addr := range addrs {
		ns, err := s.net.StatsOf(addr)
		if err != nil {
			continue // node departed between Addrs and StatsOf
		}
		stats.IndexEntries += ns.EntriesByKind[KindIndex]
		stats.DataEntries += ns.EntriesByKind[KindData]
		stats.IndexBytes += ns.BytesByKind[KindIndex]
	}
	if stats.Nodes > 0 {
		stats.MeanEntriesPerNode = float64(stats.IndexEntries+stats.DataEntries) / float64(stats.Nodes)
	}
	return stats
}
