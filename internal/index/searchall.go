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
// With Parallelism > 1 the frontier expands through a sliding lookahead
// window: while the caller processes the head branch, up to
// Parallelism-1 of the branches right behind it are already being
// looked up concurrently, and a branch's completion immediately frees
// its slot for the next pending one. Branches are still PROCESSED in
// strict frontier order, so the exploration order, the result set and
// the trace accounting match the sequential walk exactly — but unlike a
// wave with a barrier, one slow branch only delays its own processing
// slot: the lookups behind it keep streaming instead of parking the
// whole wave on the straggler, which is what made the parallel walk's
// tail latency worse than the sequential one's. The first branch is
// always the original query alone (the window only opens behind it),
// which keeps the not-indexed generalization fallback exact.
func (s *Searcher) SearchAllCtx(ctx context.Context, q xpath.Query) ([]Result, Trace, error) {
	var trace Trace
	if q.IsZero() {
		return nil, trace, xpath.ErrEmptyQuery
	}
	var results []Result
	seen := map[string]bool{}
	frontier := []xpath.Query{q}
	seen[q.String()] = true
	explored := 0

	type lookupOut struct {
		resp Response
		err  error
	}
	window := s.parallelism()
	// issued maps a frontier query to its in-flight lookup. Issued
	// queries always form a contiguous prefix of the frontier (slots are
	// filled front to back and only the head is popped), so the top-up
	// scan below stays O(window) per iteration.
	issued := make(map[string]chan lookupOut)
	for len(frontier) > 0 && explored < s.maxFanout() {
		// Top up the lookahead window behind the head. The head itself is
		// left for the caller to run inline: on a single-CPU host the
		// caller doing real lookup work while the window drains beats it
		// parking on a channel. The adaptive threshold gate is unchanged
		// from the wave design — tiny frontiers are not worth goroutines —
		// and speculation never exceeds the MaxFanout budget.
		if window > 1 && len(frontier) >= s.fanoutThreshold() {
			for i := 1; i < len(frontier) && len(issued) < window-1 && explored+1+len(issued) < s.maxFanout(); i++ {
				key := frontier[i].String()
				if _, ok := issued[key]; ok {
					continue
				}
				ch := make(chan lookupOut, 1)
				issued[key] = ch
				go func(q xpath.Query) {
					resp, err := s.svc.LookupCtx(ctx, q)
					ch <- lookupOut{resp: resp, err: err}
				}(frontier[i])
			}
		}
		current := frontier[0]
		frontier = frontier[1:]
		var out lookupOut
		if ch, ok := issued[current.String()]; ok {
			out = <-ch
			delete(issued, current.String())
		} else {
			resp, err := s.svc.LookupCtx(ctx, current)
			out = lookupOut{resp: resp, err: err}
		}

		explored++
		resp, err := out.resp, out.err
		if err != nil {
			trace.Incomplete = true
			trace.Unresolved = append(trace.Unresolved, Unresolved{
				Query: current.String(), Reason: err.Error(),
			})
			if cerr := ctx.Err(); cerr != nil {
				// Budget spent: the rest of the frontier is unreachable too.
				// In-flight speculative lookups drain into their buffered
				// channels and are dropped.
				for _, rest := range frontier {
					trace.Unresolved = append(trace.Unresolved, Unresolved{
						Query: rest.String(), Reason: cerr.Error(),
					})
				}
				break
			}
			continue
		}
		s.account(&trace, current, resp, resp.Bytes)

		for _, file := range resp.Files {
			if q.Covers(current) {
				results = append(results, Result{File: file, MSD: current})
				trace.Found = true
			}
		}
		next := make([]xpath.Query, 0, len(resp.Index)+len(resp.Cached))
		next = append(next, resp.Index...)
		next = append(next, resp.Cached...)
		if explored == 1 && len(next) == 0 && len(resp.Files) == 0 {
			// Original query not indexed: generalize, keep filtering by q.
			trace.NonIndexed = true
			for _, g := range q.Generalizations() {
				if !seen[g.String()] {
					seen[g.String()] = true
					frontier = append(frontier, g)
				}
			}
			continue
		}
		for _, cand := range next {
			if seen[cand.String()] {
				continue
			}
			if !xpath.Compatible(q, cand) {
				continue // definite conflict: nothing below matches q
			}
			seen[cand.String()] = true
			frontier = append(frontier, cand)
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
