package wire_test

// The cost ledger (DESIGN.md §26): what the benchmark's operations cost,
// counted instead of timed. Each section runs one benchmark workload's
// operation mix at small fixed counts from one seeded client, over an
// idle MemTransport ring with the workload's deployed configuration, and
// books every message, store mutation and WAL append to the operation
// that caused it. The result is compared with testdata/cost_ledger.txt,
// which holds integers only: a change to what an operation costs shows
// up as a diff of that file, reviewed like code.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/index"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
	"dhtindex/internal/workload"
)

const (
	ledgerGolden = "testdata/cost_ledger.txt"
	ledgerGot    = "testdata/cost_ledger.got"

	// The benchmark's deployed configuration: one replica per key, and a
	// searcher that fetches a frontier level in one message per owner.
	ledgerReplication = 1
	ledgerParallelism = 8

	ledgerSeed       = 1
	ledgerCorpusSeed = 2004
	// fingerRounds refreshes every finger once: 160 slots, 16 a round.
	fingerRounds = 10
)

const ledgerHeader = `# Cost ledger: what the benchmark workloads' operations cost, counted on
# an idle MemTransport ring (DESIGN.md §26). Written by TestCostLedger in
# internal/wire; every value is an exact count.
#
#   <section> <class> <fact> <n>                facts about the operations
#   <section> <class> <origin> <opcode> ...     messages sent by the client or by nodes:
#                                               requests, and their encoded frames' bytes
#   <section> <class> <origin> <opcode> fields  those replies' bytes by field (DESIGN.md §28)
#   <section> <class> store <kind> <n>          store mutations, by kind
#   <section> <class> wal appends=<n> bytes=<n> WAL records written
#
# A change: go test -run TestCostLedger ./internal/wire writes what it saw
# to testdata/cost_ledger.got; review the diff, then rename that file over
# this one.
`

// TestCostLedger runs every section, checks the counts against the
// protocol's own accounting, and compares the ledger with the golden.
func TestCostLedger(t *testing.T) {
	got := strings.Join([]string{ledgerHeader, queryTCP.run(t), queryCachedMem.run(t), runPublishSection(t)}, "\n")
	if t.Failed() {
		return
	}
	want, err := os.ReadFile(ledgerGolden)
	if err == nil && string(want) == got {
		os.Remove(ledgerGot)
		return
	}
	if werr := os.WriteFile(ledgerGot, []byte(got), 0o644); werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatalf("%v; the observed ledger is in %s", err, ledgerGot)
	}
	t.Errorf("the cost ledger changed (-%s +%s):\n%s\nif the change is intended, rename %s over %s",
		ledgerGolden, ledgerGot, lineDiff(string(want), got), ledgerGot, ledgerGolden)
}

// lineDiff lists the lines only want has (-) and those only got has (+).
// Every ledger line names its section, class and counter, so a changed
// count shows as a -/+ pair.
func lineDiff(want, got string) string {
	var b strings.Builder
	for _, d := range []struct{ sign, from, other string }{{"-", want, got}, {"+", got, want}} {
		other := make(map[string]bool)
		for _, line := range strings.Split(d.other, "\n") {
			other[line] = true
		}
		for _, line := range strings.Split(d.from, "\n") {
			if !other[line] {
				fmt.Fprintf(&b, "%s%s\n", d.sign, line)
			}
		}
	}
	return b.String()
}

// ledger books every message, store mutation and WAL append to the
// operation class that is running. The client runs one operation at a
// time and an operation returns only once the work it caused is done,
// so the running class is one field; between operations (set-up,
// warm-up) nothing is booked.
type ledger struct {
	mu      sync.Mutex
	class   string
	classes []string // in the order they first ran
	lines   map[ledgerKey]*ledgerCount
	facts   map[string]map[string]int64
	// wal reads the WAL counters of the ring's durable stores (nil on
	// memory stores).
	wal func() (appends, bytes int64)
	// split names the line whose reply bytes are also split by field
	// (zero: none); fields holds that split.
	split  ledgerKey
	fields replyFields
}

// replyFields splits replies' bytes: frame headers, the fixed head
// (version, op, presence bits, scalars, counts), Addr, entry kinds and
// entry values.
type replyFields struct{ headers, head, addr, kinds, values int64 }

func (f replyFields) sum() int64 { return f.headers + f.head + f.addr + f.kinds + f.values }

// ledgerKey names one line: origin is client, node, store or wal; what
// is the opcode or the mutation kind.
type ledgerKey struct{ class, origin, what string }

type ledgerCount struct{ n, reqBytes, replyBytes int64 }

func newLedger() *ledger {
	return &ledger{lines: make(map[ledgerKey]*ledgerCount), facts: make(map[string]map[string]int64)}
}

// op runs fn as one operation of class.
func (l *ledger) op(class string, fn func()) {
	var appends, walBytes int64
	if l.wal != nil {
		appends, walBytes = l.wal()
	}
	l.mu.Lock()
	l.class = class
	if l.facts[class] == nil {
		l.classes = append(l.classes, class)
		l.facts[class] = make(map[string]int64)
	}
	l.mu.Unlock()
	fn()
	l.mu.Lock()
	l.class = ""
	l.mu.Unlock()
	if l.wal != nil {
		a, b := l.wal()
		c := l.line(ledgerKey{class, "wal", ""})
		c.n += a - appends
		c.reqBytes += b - walBytes
	}
}

// line returns the count of key, creating it.
func (l *ledger) line(key ledgerKey) *ledgerCount {
	c := l.lines[key]
	if c == nil {
		c = &ledgerCount{}
		l.lines[key] = c
	}
	return c
}

// book counts one message (or, with no bytes, one mutation) of the
// running operation.
func (l *ledger) book(origin, what string, reqBytes, replyBytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.class == "" {
		return
	}
	c := l.line(ledgerKey{l.class, origin, what})
	c.n++
	c.reqBytes += int64(reqBytes)
	c.replyBytes += int64(replyBytes)
}

// splitReply adds reply's bytes, by field, to the split line when that
// is the line the reply was booked to.
func (l *ledger) splitReply(origin, what string, reply wire.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if (ledgerKey{l.class, origin, what}) != l.split {
		return
	}
	addr, kinds, values := wire.FieldBytes(&reply)
	l.fields.headers += wire.FrameHeaderSize
	l.fields.addr += int64(addr)
	l.fields.kinds += int64(kinds)
	l.fields.values += int64(values)
	l.fields.head += int64(frameLen(reply) - wire.FrameHeaderSize - addr - kinds - values)
}

// note adds n to a fact of the running operation's class.
func (l *ledger) note(fact string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.class != "" {
		l.facts[l.class][fact] += int64(n)
	}
}

// requests sums the messages origin sent in class, of any opcode when
// what is "".
func (l *ledger) requests(class, origin, what string) int64 {
	var n int64
	for k, c := range l.lines {
		if k.class == class && k.origin == origin && (what == "" || k.what == what) {
			n += c.n
		}
	}
	return n
}

// render writes the section's lines: per class its facts, then the
// client's and the nodes' messages, the store mutations and the WAL.
func (l *ledger) render(section, setup string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-10s %s\n", section, "setup", setup)
	for _, class := range l.classes {
		facts := l.facts[class]
		names := make([]string, 0, len(facts))
		for name := range facts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%-16s %-10s %-22s %d\n", section, class, name, facts[name])
		}
		for _, origin := range []string{"client", "node", "store", "wal"} {
			var keys []ledgerKey
			for k := range l.lines {
				if k.class == class && k.origin == origin {
					keys = append(keys, k)
				}
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i].what < keys[j].what })
			for _, k := range keys {
				c := l.lines[k]
				name := strings.TrimSpace(origin + " " + k.what)
				switch origin {
				case "store":
					fmt.Fprintf(&b, "%-16s %-10s %-22s %d\n", section, class, name, c.n)
				case "wal":
					fmt.Fprintf(&b, "%-16s %-10s %-22s appends=%d bytes=%d\n", section, class, name, c.n, c.reqBytes)
				default:
					fmt.Fprintf(&b, "%-16s %-10s %-22s requests=%d request_bytes=%d reply_bytes=%d\n",
						section, class, name, c.n, c.reqBytes, c.replyBytes)
				}
				if k == l.split {
					f := l.fields
					fmt.Fprintf(&b, "%-16s %-10s %-22s headers=%d head=%d addr=%d kinds=%d values=%d\n",
						section, class, name+" fields", f.headers, f.head, f.addr, f.kinds, f.values)
				}
			}
		}
	}
	return b.String()
}

// ledgerTransport is the ring's one MemTransport as the client or the
// nodes see it: every call is booked with the bytes its request and
// reply frames would take on TCP.
type ledgerTransport struct {
	wire.Transport
	l      *ledger
	origin string
}

func (t ledgerTransport) Call(addr string, req wire.Message) (wire.Message, error) {
	resp, err := t.Transport.Call(addr, req)
	reply := 0
	if err == nil {
		reply = frameLen(resp)
	}
	t.l.book(t.origin, req.Op.String(), frameLen(req), reply)
	if err == nil {
		t.l.splitReply(t.origin, req.Op.String(), resp)
	}
	return resp, err
}

// frameLen is the bytes m takes as one TCP frame.
func frameLen(m wire.Message) int { return wire.FrameHeaderSize + len(wire.AppendMessage(nil, &m)) }

// ledgerStore is a node's synchronized store, counting its mutations
// whether they are called directly or inside an Update section.
type ledgerStore struct {
	wire.ConcurrentStore
	l *ledger
}

func (s ledgerStore) counted() ledgerStripe { return ledgerStripe{Store: s.ConcurrentStore, l: s.l} }

func (s ledgerStore) Put(key keyspace.Key, e overlay.Entry) (bool, error) {
	return s.counted().Put(key, e)
}

func (s ledgerStore) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	return s.counted().Remove(key, e)
}

func (s ledgerStore) Replace(key keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) error {
	return s.counted().Replace(key, entries, tombs)
}

func (s ledgerStore) Entomb(key keyspace.Key, tombs []wire.Tombstone) (int, error) {
	return s.counted().Entomb(key, tombs)
}

func (s ledgerStore) Update(key keyspace.Key, fn func(wire.Store) error) error {
	return s.ConcurrentStore.Update(key, func(u wire.Store) error {
		return fn(ledgerStripe{Store: u, l: s.l})
	})
}

// ledgerStripe counts the mutations of one store by kind.
type ledgerStripe struct {
	wire.Store
	l *ledger
}

func (s ledgerStripe) Put(key keyspace.Key, e overlay.Entry) (bool, error) {
	s.l.book("store", "put", 0, 0)
	return s.Store.Put(key, e)
}

func (s ledgerStripe) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	s.l.book("store", "remove", 0, 0)
	return s.Store.Remove(key, e)
}

func (s ledgerStripe) Replace(key keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) error {
	s.l.book("store", "replace", 0, 0)
	return s.Store.Replace(key, entries, tombs)
}

func (s ledgerStripe) Entomb(key keyspace.Key, tombs []wire.Tombstone) (int, error) {
	s.l.book("store", "entomb", 0, 0)
	return s.Store.Entomb(key, tombs)
}

// ledgerRetry is the benchmark's retry policy: budget and breaker on.
func ledgerRetry(seed int64) wire.RetryPolicy {
	return wire.RetryPolicy{Seed: seed, Budget: &wire.RetryBudget{}, Breaker: &wire.BreakerPolicy{Seed: seed + 1}}
}

// bootLedgerRing starts count nodes at fixed addresses with admission
// control, joins them in one burst, and drives stabilize rounds by hand
// until every successor and predecessor is ideal, then every finger. It
// returns the client's view of the ring, whose counters go to reg.
func bootLedgerRing(t *testing.T, l *ledger, reg *telemetry.Registry, count int, store func(i int) wire.ConcurrentStore) *levelNet {
	t.Helper()
	mt := wire.NewMemTransport()
	nodes := make([]*wire.Node, count)
	for i := range nodes {
		policy := ledgerRetry(ledgerSeed + 10 + int64(2*i))
		n, err := wire.Start(wire.Config{
			Transport:         ledgerTransport{Transport: mt, l: l, origin: "node"},
			Addr:              fmt.Sprintf("mem-%04d", i+1),
			StabilizeInterval: time.Hour,
			ReplicationFactor: ledgerReplication,
			Retry:             &policy,
			Admission:         &wire.AdmissionConfig{},
			Store:             ledgerStore{ConcurrentStore: store(i), l: l},
		})
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		t.Cleanup(n.Stop)
		n.Instrument(reg)
		nodes[i] = n
	}
	for i, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr()); err != nil {
			t.Fatalf("join node %d: %v", i+1, err)
		}
	}
	ring := slices.Clone(nodes)
	slices.SortFunc(ring, func(a, b *wire.Node) int { return a.ID().Cmp(b.ID()) })
	for round := 0; ; round++ {
		err := idealErr(ring)
		if err == nil {
			break
		}
		if round == 3 {
			t.Fatalf("%d-node ring not ideal after %d rounds: %v", count, round, err)
		}
		for _, n := range nodes {
			n.StabilizeOnce()
		}
	}
	for range fingerRounds {
		for _, n := range nodes {
			n.FixFingers()
		}
	}
	client := wire.NewRetryingTransport(ledgerTransport{Transport: mt, l: l, origin: "client"}, ledgerRetry(ledgerSeed+2))
	cluster := wire.NewCluster(client, ledgerSeed+3, ledgerReplication)
	ids := make([]keyspace.Key, len(ring))
	for i, n := range ring {
		cluster.Track(n.Addr())
		ids[i] = n.ID()
	}
	cluster.Instrument(reg)
	return &levelNet{Cluster: cluster, ids: ids, l: l}
}

// idealErr names the first node of ring (in ring order) whose successor
// or predecessor is not its ideal neighbour.
func idealErr(ring []*wire.Node) error {
	for i, n := range ring {
		succ, pred := ring[(i+1)%len(ring)], ring[(i+len(ring)-1)%len(ring)]
		if n.Successor() != succ.Addr() || n.Predecessor() != pred.Addr() {
			return fmt.Errorf("node %s: successor %s, predecessor %s; want %s, %s",
				n.Addr(), n.Successor(), n.Predecessor(), succ.Addr(), pred.Addr())
		}
	}
	return nil
}

// checkLedger fails t unless every batched read cost one message per
// presumed owner, and the converged ring sent no routing lookup and no
// operation fell back from its presumed owner.
func checkLedger(t *testing.T, section string, l *ledger, reg *telemetry.Registry) {
	t.Helper()
	for _, class := range l.classes {
		for _, origin := range []string{"client", "node"} {
			if n := l.requests(class, origin, wire.OpFindSuccessor.String()); n != 0 {
				t.Errorf("%s %s: %s sent %d find-successor lookups on a converged ring", section, class, origin, n)
			}
		}
		if got, want := l.requests(class, "client", wire.OpGetBatch.String()), l.facts[class]["owner_groups"]; got != want {
			t.Errorf("%s %s: %d get-batch messages for %d owner groups of batched reads", section, class, got, want)
		}
	}
	for _, name := range []string{"wire_owner_fallbacks_total", "wire_batch_fallbacks_total"} {
		if n := metricValue(reg, name); n != 0 {
			t.Errorf("%s: %s = %d on a converged ring", section, name, n)
		}
	}
}

// metricValue reads one unlabelled series from reg's text snapshot.
func metricValue(reg *telemetry.Registry, name string) int64 {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		panic(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				panic(err)
			}
			return int64(v)
		}
	}
	return 0
}

// levelNet is the cluster as the index layer sees it. It counts each
// batched read and the distinct presumed owners of its keys — the
// messages it must cost.
type levelNet struct {
	*wire.Cluster
	ids []keyspace.Key // node ids in ring order
	l   *ledger
}

func (n *levelNet) GetBatch(ctx context.Context, keys []keyspace.Key, offers []uint64, parallel int) []overlay.GetResult {
	owners := make(map[keyspace.Key]bool)
	for _, k := range keys {
		i := sort.Search(len(n.ids), func(i int) bool { return n.ids[i].Cmp(k) >= 0 })
		owners[n.ids[i%len(n.ids)]] = true
	}
	n.l.note("batched_reads", 1)
	n.l.note("owner_groups", len(owners))
	return n.Cluster.GetBatch(ctx, keys, offers, parallel)
}

// querySection is one read workload: the paper's query mix over a
// corpus published with the simple scheme.
type querySection struct {
	name     string
	nodes    int
	articles int
	policy   cache.Policy
	lru      int
	// warmup is the finds issued before the counters start, which fill
	// the shortcut caches.
	warmup int
	ops    int
	// searchEvery makes every n-th operation an automated search.
	searchEvery int
	// splitFinds splits the finds' Get reply bytes by field.
	splitFinds bool
}

// The read sections mirror query_tcp and query_cached_mem.
var (
	queryTCP       = querySection{name: "query_tcp", nodes: 8, articles: 400, policy: cache.None, warmup: 100, ops: 500, searchEvery: 50, splitFinds: true}
	queryCachedMem = querySection{name: "query_cached_mem", nodes: 32, articles: 1000, policy: cache.LRU, lru: 30, warmup: 1000, ops: 1000, searchEvery: 200}
)

func ledgerCorpus(t *testing.T, articles int) []descriptor.Article {
	t.Helper()
	corpus, err := dataset.Generate(dataset.Config{Articles: articles, Seed: ledgerCorpusSeed})
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Articles
}

func ledgerFile(prefix string, i int) string { return fmt.Sprintf("%s-%06d.pdf", prefix, i) }

func memStores(int) wire.ConcurrentStore { return wire.NewShardedMemStore(0) }

func (s querySection) run(t *testing.T) string {
	articles := ledgerCorpus(t, s.articles)
	l := newLedger()
	findGets := ledgerKey{"find", "client", wire.OpGet.String()}
	if s.splitFinds {
		l.split = findGets
	}
	reg := telemetry.NewRegistry()
	svc := index.New(bootLedgerRing(t, l, reg, s.nodes, memStores), s.policy, s.lru)
	searcher := index.NewSearcher(svc)
	searcher.Parallelism = ledgerParallelism
	perAuthor := make(map[[2]string]int)
	for i, a := range articles {
		if err := svc.PublishArticle(ledgerFile("base", i), a, index.Simple); err != nil {
			t.Fatalf("%s: publish: %v", s.name, err)
		}
		perAuthor[[2]string{a.AuthorFirst, a.AuthorLast}]++
	}
	generator := func(stream int64) *workload.Generator {
		gen, err := workload.NewGenerator(articles, workload.PaperStructureModel(), ledgerSeed+stream)
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
	find := func(q workload.Query) {
		trace, err := searcher.Find(q.Query, dataset.MSD(q.Target))
		if err != nil || !trace.Found || trace.Incomplete || trace.File != ledgerFile("base", q.Rank) {
			t.Errorf("%s: find %s: %v, found %v, file %q", s.name, q.Query, err, trace.Found, trace.File)
		}
		hit := 0
		if trace.CacheHit {
			hit = 1
		}
		l.note("ops", 1)
		l.note("interactions", trace.Interactions)
		l.note("cache_hits", hit)
	}
	warm := generator(100)
	for range s.warmup {
		find(warm.Next())
	}
	finds, searches := generator(0), generator(1)
	for i := 1; i <= s.ops; i++ {
		if i%s.searchEvery != 0 {
			q := finds.Next()
			l.op("find", func() { find(q) })
			continue
		}
		q := searches.Next()
		l.op("search_all", func() {
			author := [2]string{q.Target.AuthorFirst, q.Target.AuthorLast}
			results, trace, err := searcher.SearchAll(dataset.AuthorQuery(author[0], author[1]))
			if err != nil || trace.Incomplete || len(results) != perAuthor[author] {
				t.Errorf("%s: search %v: %v, %d results, want %d", s.name, author, err, len(results), perAuthor[author])
			}
			l.note("ops", 1)
			l.note("interactions", trace.Interactions)
			l.note("results", len(results))
		})
	}
	checkLedger(t, s.name, l, reg)
	if c := l.lines[findGets]; s.splitFinds && (c == nil || l.fields.sum() != c.replyBytes) {
		t.Errorf("%s: the finds' Get reply fields add up to %d bytes, not their reply_bytes", s.name, l.fields.sum())
	}
	if s.policy == cache.None {
		// Every interaction of a directed find is one lookup: one message.
		if got, want := l.requests("find", "client", ""), l.facts["find"]["interactions"]; got != want {
			t.Errorf("%s: finds sent %d client requests for %d interactions", s.name, got, want)
		}
	}
	return l.render(s.name, fmt.Sprintf("nodes=%d articles=%d scheme=simple cache=%s capacity=%d warmup=%d ops=%d search_all_every=%d",
		s.nodes, s.articles, s.policy, s.lru, s.warmup, s.ops, s.searchEvery))
}

// runPublishSection mirrors publish_durable: one writer publishing a
// fresh article and unpublishing the oldest live one, complex scheme,
// every node on a durable sharded store.
func runPublishSection(t *testing.T) string {
	const (
		section = "publish_durable"
		nodes   = 8
		live    = 32
		ops     = 32
	)
	articles := ledgerCorpus(t, live+ops)
	l := newLedger()
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	net := bootLedgerRing(t, l, reg, nodes, func(i int) wire.ConcurrentStore {
		s, err := durable.OpenSharded(filepath.Join(dir, fmt.Sprintf("node-%02d", i)), 0, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.Instrument(reg)
		return s
	})
	l.wal = func() (int64, int64) {
		return metricValue(reg, "wire_wal_appends_total"), metricValue(reg, "wire_wal_bytes_total")
	}
	svc := index.New(net, cache.None, 0)
	for i := range live {
		if err := svc.PublishArticle(ledgerFile("pub", i), articles[i], index.Complex); err != nil {
			t.Fatalf("%s: publish: %v", section, err)
		}
	}
	for i := live; i < live+ops; i++ {
		l.op("publish", func() {
			if err := svc.PublishArticle(ledgerFile("pub", i), articles[i], index.Complex); err != nil {
				t.Errorf("%s: publish: %v", section, err)
			}
			l.note("ops", 1)
		})
		old := i - live
		l.op("unpublish", func() {
			// Removals name their entries by digest (DESIGN.md §44): how
			// many the nodes resolved, and how many they sent back for a
			// whole re-send.
			resolved, unresolved := metricValue(reg, "wire_remove_digests_resolved_total"), metricValue(reg, "wire_remove_digests_unresolved_total")
			if err := svc.UnpublishArticle(ledgerFile("pub", old), articles[old], index.Complex); err != nil {
				t.Errorf("%s: unpublish: %v", section, err)
			}
			l.note("ops", 1)
			l.note("digests_resolved", int(metricValue(reg, "wire_remove_digests_resolved_total")-resolved))
			l.note("digests_unresolved", int(metricValue(reg, "wire_remove_digests_unresolved_total")-unresolved))
		})
	}
	checkLedger(t, section, l, reg)
	return l.render(section, fmt.Sprintf("nodes=%d store=durable scheme=complex cache=%s live=%d ops=%d", nodes, cache.None, live, ops))
}
