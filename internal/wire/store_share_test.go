package wire_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

// TestGetResultOutlivesWrites holds the sharing contract every Store shape
// keeps: a set Get returned stays as it was across every mutator on its
// key — Put, Remove, Entomb, Replace and GCTombstones — and across a
// reopen for the durable shapes, and an append to a set Get returned never
// shows in the next Get.
func TestGetResultOutlivesWrites(t *testing.T) {
	key := keyspace.NewKey("shared")
	entry := func(kind string, v int) overlay.Entry {
		return overlay.Entry{Kind: kind, Value: fmt.Sprintf("v%02d", v)}
	}
	for _, sh := range storeShapes() {
		t.Run(sh.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := sh.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = st.Close() }()
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range []int{1, 3, 5, 7} {
				_, err := st.Put(key, entry("index", v))
				must(err)
			}
			_, err = st.Put(key, entry("data", 0))
			must(err)
			now := time.Now().UnixNano()
			for _, step := range []struct {
				name  string
				write func()
			}{
				{"Put", func() { _, err := st.Put(key, entry("index", 4)); must(err) }},
				{"Remove", func() { _, err := st.Remove(key, entry("index", 3)); must(err) }},
				{"Entomb", func() {
					_, err := st.Entomb(key, []wire.Tombstone{{Entry: entry("index", 5), At: now}})
					must(err)
				}},
				{"Replace", func() {
					must(st.Replace(key, []overlay.Entry{entry("index", 9), entry("index", 2), entry("index", 9)},
						[]wire.Tombstone{{Entry: entry("index", 3), At: now}}))
				}},
				{"GCTombstones", func() { _, err := st.GCTombstones(now + 1); must(err) }},
				{"Put after GC", func() { _, err := st.Put(key, entry("index", 6)); must(err) }},
				{"reopen", func() {
					if !sh.disk {
						return
					}
					must(st.Close())
					st, err = sh.open(dir)
					must(err)
				}},
				{"Remove to empty", func() {
					for _, e := range st.Get(key) {
						_, err := st.Remove(key, e)
						must(err)
					}
				}},
			} {
				held := st.Get(key)
				was := slices.Clone(held)
				step.write()
				if !slices.Equal(held, was) {
					t.Fatalf("%s: a held Get result changed from %v to %v", step.name, was, held)
				}
				cur := st.Get(key)
				grown := append(cur, entry("index", 99))
				if next := st.Get(key); !slices.Equal(next, cur) || slices.Contains(next, grown[len(grown)-1]) {
					t.Fatalf("%s: appending to a Get result changed the next Get: %v", step.name, next)
				}
			}
			if got := st.Get(key); got != nil {
				t.Fatalf("emptied key: Get = %v, want nil", got)
			}
		})
	}
}

// TestShardedStoreHotKeyReadersAndWriters runs 4 readers iterating the
// sets Get returns for one hot key while 2 writers Put and Remove on it
// (run with -race): no reader may see a set change under it, and every
// set read is strictly sorted.
func TestShardedStoreHotKeyReadersAndWriters(t *testing.T) {
	st := wire.NewShardedMemStore(0)
	key := keyspace.NewKey("hot")
	const rounds = 2000
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				set := st.Get(key)
				was := slices.Clone(set)
				for i := 1; i < len(set); i++ {
					if wire.CompareEntries(set[i-1], set[i]) >= 0 {
						t.Errorf("Get returned an unsorted set: %v", set)
						return
					}
				}
				if !slices.Equal(set, was) {
					t.Errorf("a set changed while it was read: %v, was %v", set, was)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				e := overlay.Entry{Kind: "index", Value: fmt.Sprintf("w%d-%04d", w, i%64)}
				if i%3 == 2 {
					if _, err := st.Remove(key, e); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := st.Put(key, e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// BenchmarkMemStoreGet times one read of a key holding 16 or 512 entries:
// the stored set itself, with nothing copied.
func BenchmarkMemStoreGet(b *testing.B) {
	for _, n := range []int{16, 512} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			st := wire.NewMemStore()
			key := keyspace.NewKey("get")
			for i := 0; i < n; i++ {
				if _, err := st.Put(key, overlay.Entry{Kind: "index", Value: fmt.Sprintf("/article[conf=SIGCOMM][year=%04d]", 1000+i)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(st.Get(key)) != n {
					b.Fatal("short set")
				}
			}
		})
	}
}
