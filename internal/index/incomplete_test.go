package index

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/xpath"
)

// faultyNetwork wraps an overlay.Network and fails Gets for chosen keys,
// simulating a crash-stopped DHT hop under a specific query. It has
// nothing but the Network methods, so these tests also cover the reads
// overlay.PerKey builds from Get.
type faultyNetwork struct {
	overlay.Network
	mu   sync.Mutex
	fail map[keyspace.Key]string
}

func (f *faultyNetwork) failQuery(q xpath.Query, reason string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail == nil {
		f.fail = map[keyspace.Key]string{}
	}
	f.fail[q.Key()] = reason
}

func (f *faultyNetwork) Get(key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	f.mu.Lock()
	reason := f.fail[key]
	f.mu.Unlock()
	if reason != "" {
		return nil, overlay.Route{}, errors.New(reason)
	}
	return f.Network.Get(key)
}

// faultyFig1 is fig1Service over a fault-injectable substrate.
func faultyFig1(t *testing.T) (*Service, *faultyNetwork, []descriptor.Article) {
	t.Helper()
	net := testRing(t, 16, 1)
	fn := &faultyNetwork{Network: net}
	svc := New(fn, cache.None, 0)
	arts := descriptor.Fig1Articles()
	files := []string{"x.pdf", "y.pdf", "z.pdf"}
	for i, a := range arts {
		if err := svc.PublishArticle(files[i], a, Fig4); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	return svc, fn, arts
}

// TestFindDegradesToIncompleteOnDeadHop is the degradation acceptance
// test: a directed search whose mid-chain hop dies returns a partial
// trace flagged Incomplete with the unresolved branch named — not an
// error.
func TestFindDegradesToIncompleteOnDeadHop(t *testing.T) {
	svc, fn, arts := faultyFig1(t)
	reg := telemetry.NewRegistry()
	svc.Instrument(reg)
	searcher := NewSearcher(svc)
	a := arts[0] // John Smith, TCP -> x.pdf
	q := dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast)
	target := dataset.MSD(a)

	// Sanity: the chain works before the fault.
	trace, err := searcher.Find(q, target)
	if err != nil || !trace.Found {
		t.Fatalf("pre-fault find: %+v, %v", trace, err)
	}

	// Kill the middle hop of the Fig4 chain (author -> author+title ->
	// MSD) and search again.
	at := dataset.AuthorTitleQuery(a.AuthorFirst, a.AuthorLast, a.Title)
	fn.failQuery(at, "injected: hop crash-stopped")
	trace, err = searcher.Find(q, target)
	if err != nil {
		t.Fatalf("degraded find must not error, got %v", err)
	}
	if !trace.Incomplete || trace.Found {
		t.Fatalf("trace = %+v, want Incomplete and not Found", trace)
	}
	if len(trace.Unresolved) != 1 {
		t.Fatalf("Unresolved = %v, want exactly the dead branch", trace.Unresolved)
	}
	u := trace.Unresolved[0]
	if u.Query != at.String() || !strings.Contains(u.Reason, "crash-stopped") {
		t.Fatalf("unresolved branch = %+v, want %s with the injected reason", u, at)
	}
	// The partial progress before the dead hop is still accounted.
	if trace.Interactions < 1 {
		t.Fatalf("degraded trace lost its resolved hops: %+v", trace)
	}
	// The degradation is visible in telemetry.
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "index_incomplete_lookups_total 1") {
		t.Errorf("index_incomplete_lookups_total not incremented:\n%s", buf.String())
	}
}

// TestSearchAllReturnsPartialResults: the exhaustive mode keeps exploring
// past a dead branch and returns every result the live part of the index
// DAG could deliver, plus an exact account of what is missing.
func TestSearchAllReturnsPartialResults(t *testing.T) {
	svc, fn, arts := faultyFig1(t)
	searcher := NewSearcher(svc)
	// Kill the branch leading to x.pdf (Smith/TCP); Smith/IPv6 -> y.pdf
	// must still be found.
	dead := dataset.AuthorTitleQuery(arts[0].AuthorFirst, arts[0].AuthorLast, arts[0].Title)
	fn.failQuery(dead, "injected: branch down")

	results, trace, err := searcher.SearchAll(dataset.LastNameQuery("Smith"))
	if err != nil {
		t.Fatalf("degraded search-all must not error, got %v", err)
	}
	if !trace.Incomplete {
		t.Fatalf("trace not marked Incomplete: %+v", trace)
	}
	files := map[string]bool{}
	for _, r := range results {
		files[r.File] = true
	}
	if !files["y.pdf"] || files["x.pdf"] {
		t.Fatalf("partial results = %v, want y.pdf reachable and x.pdf missing", files)
	}
	found := false
	for _, u := range trace.Unresolved {
		if u.Query == dead.String() && strings.Contains(u.Reason, "branch down") {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead branch not reported: %v", trace.Unresolved)
	}
}

// TestFindCtxSpentBudgetDegrades: an exhausted deadline budget degrades
// the same way a dead hop does — partial trace, nil error — and returns
// immediately instead of burning retries.
func TestFindCtxSpentBudgetDegrades(t *testing.T) {
	svc, _, arts := faultyFig1(t)
	searcher := NewSearcher(svc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	trace, err := searcher.FindCtx(ctx, dataset.AuthorQuery(arts[0].AuthorFirst, arts[0].AuthorLast), dataset.MSD(arts[0]))
	if err != nil {
		t.Fatalf("spent budget must degrade, not error: %v", err)
	}
	if !trace.Incomplete || trace.Found {
		t.Fatalf("trace = %+v, want Incomplete", trace)
	}
	if len(trace.Unresolved) == 0 || !strings.Contains(trace.Unresolved[0].Reason, context.Canceled.Error()) {
		t.Fatalf("unresolved = %v, want the spent budget recorded", trace.Unresolved)
	}
}
