package index

import (
	"context"
	"slices"
	"sort"

	"dhtindex/internal/xpath"
)

// Result is one file discovered by the automated search mode.
type Result struct {
	// File is the stored file reference.
	File string
	// MSD is the most specific query under which the file is published.
	MSD xpath.Query
}

// SearchAll implements the paper's automated mode (§IV-B): "the system
// recursively explores the indexes and returns all the file descriptors
// that match the original query". It walks the index DAG breadth-first
// from q, pruning branches that are incompatible with q, and — when q
// itself is not indexed — first generalizes q and then filters the results
// (the generalization/specialization approach).
//
// The returned Trace aggregates the exploration cost exactly like a
// directed Find.
func (s *Searcher) SearchAll(q xpath.Query) ([]Result, Trace, error) {
	return s.SearchAllCtx(context.Background(), q)
}

// SearchAllCtx is SearchAll under a deadline budget with graceful
// degradation: a branch whose lookup fails (dead node, spent budget) is
// recorded in the trace's Unresolved list and the exploration continues
// with the remaining frontier, so callers get every result the live part
// of the index DAG could deliver plus an exact account of what is
// missing — instead of an all-or-nothing error.
//
// The walk is level-synchronous: the branches of one level are
// independent lookups, fetched together by Service.lookupBatch — one at
// a time with Parallelism ≤ 1, otherwise in one owner-grouped read (a
// level of k branches on m owners is m messages) — and PROCESSED in
// frontier order, which is the order a FIFO walk visits them in. The
// exploration order, the result set and every trace field are therefore
// the same at any Parallelism. Level 0 is the original query alone,
// which keeps the not-indexed generalization fallback exact, and a
// level is cut to what is left of the MaxFanout budget.
func (s *Searcher) SearchAllCtx(ctx context.Context, q xpath.Query) ([]Result, Trace, error) {
	var trace Trace
	if q.IsZero() {
		return nil, trace, xpath.ErrEmptyQuery
	}
	var results []Result
	seen := map[string]bool{q.String(): true}
	frontier := []xpath.Query{q}
	budget := s.maxFanout()

walk:
	for level := 0; len(frontier) > 0 && budget > 0; level++ {
		batch := frontier[:min(len(frontier), budget)]
		frontier = frontier[len(batch):]
		budget -= len(batch)
		for i, out := range s.svc.lookupBatch(ctx, batch, s.parallelism()) {
			current, resp := batch[i], out.resp
			if out.err != nil {
				trace.Incomplete = true
				trace.Unresolved = append(trace.Unresolved, Unresolved{
					Query: current.String(), Reason: out.err.Error(),
				})
				if cerr := ctx.Err(); cerr != nil {
					// Budget spent: the rest of the level and everything
					// queued behind it is unreachable too.
					for _, rest := range slices.Concat(batch[i+1:], frontier) {
						trace.Unresolved = append(trace.Unresolved, Unresolved{
							Query: rest.String(), Reason: cerr.Error(),
						})
					}
					break walk
				}
				continue
			}
			s.account(&trace, current, resp, resp.Bytes)

			if len(resp.Files) > 0 && q.Covers(current) {
				for _, file := range resp.Files {
					results = append(results, Result{File: file, MSD: current})
				}
				trace.Found = true
			}
			if level == 0 && len(resp.Index)+len(resp.Files) == 0 {
				// Original query not indexed: generalize, keep filtering by
				// q, and follow the key's shortcuts too.
				trace.NonIndexed = true
				for _, g := range q.Generalizations() {
					if form := g.String(); !seen[form] {
						seen[form] = true
						frontier = append(frontier, g)
					}
				}
			}
			for _, next := range [2][]xpath.Query{resp.Index, resp.Cached} {
				for _, cand := range next {
					form := cand.String()
					if seen[form] || !xpath.Compatible(q, cand) {
						continue // visited, or a definite conflict: nothing below matches q
					}
					seen[form] = true
					frontier = append(frontier, cand)
				}
			}
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].File < results[j].File })
	return dedupeResults(results), trace, nil
}

// maxFanout resolves the automated mode's exploration bound.
func (s *Searcher) maxFanout() int {
	if s.MaxFanout > 0 {
		return s.MaxFanout
	}
	return 100000
}

func dedupeResults(in []Result) []Result {
	return slices.CompactFunc(in, func(a, b Result) bool {
		return a.File == b.File && a.MSD.Equal(b.MSD)
	})
}
