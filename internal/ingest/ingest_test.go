package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dhtindex/internal/descriptor"
	"dhtindex/internal/wire"
	"dhtindex/internal/xpath"
)

// fakePub is a scriptable Publisher: per-ID failure counts and a
// publish log.
type fakePub struct {
	mu        sync.Mutex
	published []string
	calls     map[string]int
	// failFirst fails the first N attempts of an ID with failErr.
	failFirst map[string]int
	failErr   error
	// failAlways fails every attempt of an ID with the mapped error.
	failAlways map[string]error
	// gate, when non-nil, blocks every publish until released.
	gate chan struct{}
}

func newFakePub() *fakePub {
	return &fakePub{calls: map[string]int{}, failFirst: map[string]int{}, failAlways: map[string]error{}}
}

func (f *fakePub) Publish(doc Document) error {
	f.mu.Lock()
	gate := f.gate
	f.mu.Unlock()
	if gate != nil {
		<-gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[doc.ID]++
	if err, ok := f.failAlways[doc.ID]; ok {
		return err
	}
	if n := f.failFirst[doc.ID]; n > 0 {
		f.failFirst[doc.ID] = n - 1
		return f.failErr
	}
	f.published = append(f.published, doc.ID)
	return nil
}

func (f *fakePub) count(id string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[id]
}

func (f *fakePub) publishedIDs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.published))
	copy(out, f.published)
	return out
}

// gatedPub returns a publisher whose publishes block on a gate, plus
// an idempotent release function. Tests must release the gate before
// the pipeline's deferred Close (register the release defer AFTER the
// Close defer so it runs first).
func gatedPub() (*fakePub, func()) {
	p := newFakePub()
	p.gate = make(chan struct{})
	var once sync.Once
	return p, func() { once.Do(func() { close(p.gate) }) }
}

func art(i int) descriptor.Article {
	return descriptor.Article{
		AuthorFirst: "First", AuthorLast: fmt.Sprintf("Last%d", i),
		Title: fmt.Sprintf("Title %d", i), Conf: "SIGCOMM", Year: 1990 + i%30, Size: 1000,
	}
}

func doc(i int) Document {
	return Document{ID: fmt.Sprintf("doc-%03d", i), File: fmt.Sprintf("doc-%03d.pdf", i), Article: art(i)}
}

func fastConfig() Config {
	return Config{
		QueueBound: 8, Workers: 2, PublishRetryCap: 3,
		RetryBackoff: time.Millisecond, OverloadCooldown: 20 * time.Millisecond,
		FreshnessTTL: time.Hour, RepublishInterval: time.Hour,
	}
}

func drain(t *testing.T, p *Pipeline) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestEnqueuePublishAck(t *testing.T) {
	pub := newFakePub()
	p, err := Open(t.TempDir(), pub, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 5; i++ {
		if err := p.Enqueue(doc(i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	drain(t, p)
	st := p.Stats()
	if st.Published != 5 || st.DeadLettered != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if got := len(pub.publishedIDs()); got != 5 {
		t.Fatalf("published %d docs, want 5", got)
	}
	if st.Tracked != 5 {
		t.Fatalf("tracked %d, want 5", st.Tracked)
	}
}

func TestEnqueueRejectsEmptyID(t *testing.T) {
	p, err := Open(t.TempDir(), newFakePub(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Enqueue(Document{File: "x.pdf"}); !errors.Is(err, ErrNoID) {
		t.Fatalf("got %v, want ErrNoID", err)
	}
}

func TestBlockPolicyBlocksUntilSpace(t *testing.T) {
	pub, release := gatedPub()
	cfg := fastConfig()
	cfg.QueueBound = 2
	cfg.Workers = 1
	p, err := Open(t.TempDir(), pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer release()
	// Worker grabs doc 0 and blocks on the gate; docs 1-2 fill the queue.
	for i := 0; i < 3; i++ {
		if err := p.Enqueue(doc(i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	unblocked := make(chan error, 1)
	go func() { unblocked <- p.Enqueue(doc(3)) }()
	select {
	case err := <-unblocked:
		t.Fatalf("enqueue on a full queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("blocked enqueue: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue never unblocked after queue space freed")
	}
	drain(t, p)
}

// TestOverloadBackoffSpendsNoRetryBudget: a publish refused with
// wire.ErrOverload backs off for OverloadCooldown and tries again without
// spending the document's retry budget — overload is the DHT's problem,
// not the document's.
func TestOverloadBackoffSpendsNoRetryBudget(t *testing.T) {
	pub := newFakePub()
	pub.failErr = fmt.Errorf("put: %w", wire.ErrOverload)
	cfg := fastConfig()
	// More overloads than the retry cap would allow failures.
	pub.failFirst["doc-000"] = cfg.PublishRetryCap + 1
	p, err := Open(t.TempDir(), pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Enqueue(doc(0)); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	st := p.Stats()
	if st.Published != 1 || st.DeadLettered != 0 {
		t.Fatalf("after overload recovery: %+v", st)
	}
	if st.OverloadBackoffs != int64(cfg.PublishRetryCap+1) || st.Retries != 0 {
		t.Fatalf("overload backoffs %d, retries %d; want %d and 0 (overload consumed retry budget)",
			st.OverloadBackoffs, st.Retries, cfg.PublishRetryCap+1)
	}
}

func TestPoisonDeadLettersImmediately(t *testing.T) {
	pub := newFakePub()
	pub.failAlways["doc-000"] = fmt.Errorf("index: publish: %w", xpath.ErrEmptyQuery)
	p, err := Open(t.TempDir(), pub, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Enqueue(doc(0)); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	if got := pub.count("doc-000"); got != 1 {
		t.Fatalf("poison doc attempted %d times, want 1", got)
	}
	dls := p.DeadLetters()
	if len(dls) != 1 || dls[0].Doc.ID != "doc-000" {
		t.Fatalf("dead letters: %+v", dls)
	}
	if dls[0].Reason == "" {
		t.Fatal("dead letter has no reason")
	}
}

func TestTransientFailuresConsumeRetryCap(t *testing.T) {
	pub := newFakePub()
	pub.failErr = errors.New("transient: node crashed mid-op")
	pub.failAlways["doc-000"] = pub.failErr
	cfg := fastConfig()
	cfg.PublishRetryCap = 3
	p, err := Open(t.TempDir(), pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Enqueue(doc(0)); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	if got := pub.count("doc-000"); got != 3 {
		t.Fatalf("doc attempted %d times, want exactly the cap (3)", got)
	}
	st := p.Stats()
	if st.DeadLettered != 1 || st.Retries != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRetryThenSucceed(t *testing.T) {
	pub := newFakePub()
	pub.failErr = errors.New("transient")
	pub.failFirst["doc-000"] = 2
	p, err := Open(t.TempDir(), pub, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Enqueue(doc(0)); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	st := p.Stats()
	if st.Published != 1 || st.Retries != 2 || st.DeadLettered != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCrashRestartRecoversPending(t *testing.T) {
	dir := t.TempDir()
	// A publisher that always fails keeps every document pending; the
	// long retry backoff parks the worker in an interruptible sleep so
	// Kill lands with all four documents unpublished.
	failing := newFakePub()
	failing.failErr = errors.New("transient: ring unreachable")
	for i := 0; i < 4; i++ {
		failing.failAlways[doc(i).ID] = failing.failErr
	}
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.RetryBackoff = 10 * time.Second
	p, err := Open(dir, failing, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := p.Enqueue(doc(i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	// Crash with everything still pending.
	if err := p.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}

	pub := newFakePub()
	p2, err := Open(dir, pub, fastConfig())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	st := p2.Stats()
	if st.RecoveredPending != 4 {
		t.Fatalf("recovered %d pending, want 4 (stats %+v)", st.RecoveredPending, st)
	}
	drain(t, p2)
	if got := len(pub.publishedIDs()); got != 4 {
		t.Fatalf("republished %d docs after crash, want 4", got)
	}
	if st := p2.Stats(); st.Published != 4 {
		t.Fatalf("stats after recovery: %+v", st)
	}
}

func TestCrashRestartKeepsPublishedAndDead(t *testing.T) {
	dir := t.TempDir()
	pub := newFakePub()
	pub.failAlways["doc-001"] = fmt.Errorf("bad: %w", xpath.ErrEmptyQuery)
	p, err := Open(dir, pub, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue(doc(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue(doc(1)); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(dir, newFakePub(), fastConfig())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	st := p2.Stats()
	if st.RecoveredPublished != 1 || st.RecoveredDead != 1 || st.RecoveredPending != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if st.Tracked != 1 {
		t.Fatalf("tracked %d after recovery, want 1", st.Tracked)
	}
	dls := p2.DeadLetters()
	if len(dls) != 1 || dls[0].Doc.ID != "doc-001" {
		t.Fatalf("dead letters after recovery: %+v", dls)
	}
}

func TestRepublishRefreshesBeforeDeadline(t *testing.T) {
	pub := newFakePub()
	cfg := fastConfig()
	cfg.FreshnessTTL = 80 * time.Millisecond
	cfg.RepublishInterval = 10 * time.Millisecond
	p, err := Open(t.TempDir(), pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Enqueue(doc(0)); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Republished == 0 {
		if time.Now().After(deadline) {
			t.Fatal("republish loop never refreshed the document")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := pub.count("doc-000"); got < 2 {
		t.Fatalf("doc published %d times, want >= 2 (initial + refresh)", got)
	}
}

func TestForceRepublishAndForget(t *testing.T) {
	pub := newFakePub()
	p, err := Open(t.TempDir(), pub, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 3; i++ {
		if err := p.Enqueue(doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p)
	if n := p.ForceRepublish(); n != 3 {
		t.Fatalf("force republish refreshed %d, want 3", n)
	}
	if !p.Forget("doc-001") {
		t.Fatal("forget of a tracked doc returned false")
	}
	if p.Forget("doc-001") {
		t.Fatal("double forget returned true")
	}
	if n := p.ForceRepublish(); n != 2 {
		t.Fatalf("force republish after forget refreshed %d, want 2", n)
	}
	if st := p.Stats(); st.Tracked != 2 {
		t.Fatalf("tracked %d after forget, want 2", st.Tracked)
	}
}

func TestInspectSpool(t *testing.T) {
	dir := t.TempDir()
	pub := newFakePub()
	pub.failAlways["doc-002"] = fmt.Errorf("bad: %w", xpath.ErrEmptyQuery)
	p, err := Open(dir, pub, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Enqueue(doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := InspectSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Published != 2 || sum.Dead != 1 || sum.Pending != 0 {
		t.Fatalf("summary: %+v", sum)
	}
	if len(sum.DeadLetters) != 1 || sum.DeadLetters[0].Doc.ID != "doc-002" {
		t.Fatalf("dead letters: %+v", sum.DeadLetters)
	}
	if sum.NextDeadline.IsZero() {
		t.Fatal("no freshness deadline recorded for published docs")
	}
}

func TestInspectSpoolPendingAge(t *testing.T) {
	dir := t.TempDir()
	pub := newFakePub()
	pub.failErr = errors.New("transient")
	for i := 0; i < 3; i++ {
		pub.failAlways[doc(i).ID] = pub.failErr
	}
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.RetryBackoff = 10 * time.Second
	p, err := Open(dir, pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Enqueue(doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}

	sum, err := InspectSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pending != 3 {
		t.Fatalf("pending %d, want 3 (summary %+v)", sum.Pending, sum)
	}
	if sum.OldestPendingID != "doc-000" || sum.OldestPendingAge <= 0 {
		t.Fatalf("oldest pending: %q age %v", sum.OldestPendingID, sum.OldestPendingAge)
	}
}

func TestEnqueueAfterCloseFails(t *testing.T) {
	p, err := Open(t.TempDir(), newFakePub(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue(doc(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
