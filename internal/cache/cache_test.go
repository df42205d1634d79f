package cache

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddAndTargets(t *testing.T) {
	s := NewStore(0)
	if !s.Add("q6", "d1") {
		t.Fatal("first Add must create an entry")
	}
	if s.Add("q6", "d1") {
		t.Fatal("duplicate Add must not create an entry")
	}
	s.Add("q6", "d2")
	s.Add("q5", "d3")
	got := s.Targets("q6")
	sort.Strings(got)
	if len(got) != 2 || got[0] != "d1" || got[1] != "d2" {
		t.Fatalf("Targets(q6) = %v", got)
	}
	if s.Targets("missing") != nil {
		t.Fatal("Targets on missing query must be nil")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestContains(t *testing.T) {
	s := NewStore(0)
	s.Add("q", "t")
	if !s.Contains("q", "t") {
		t.Fatal("Contains must find stored pair")
	}
	if s.Contains("q", "other") || s.Contains("other", "t") {
		t.Fatal("Contains found a pair never stored")
	}
}

func TestLRUEviction(t *testing.T) {
	s := NewStore(3)
	s.Add("q1", "t1")
	s.Add("q2", "t2")
	s.Add("q3", "t3")
	if !s.Full() {
		t.Fatal("store should be full at capacity 3")
	}
	// q1 is oldest; adding a 4th evicts it.
	s.Add("q4", "t4")
	if s.Contains("q1", "t1") {
		t.Fatal("LRU entry not evicted")
	}
	if !s.Contains("q2", "t2") || !s.Contains("q4", "t4") {
		t.Fatal("wrong entry evicted")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestTouchProtectsFromEviction(t *testing.T) {
	s := NewStore(2)
	s.Add("a", "1")
	s.Add("b", "2")
	s.Touch("a", "1") // now b is LRU
	s.Add("c", "3")
	if !s.Contains("a", "1") {
		t.Fatal("touched entry was evicted")
	}
	if s.Contains("b", "2") {
		t.Fatal("untouched LRU entry survived")
	}
}

func TestReAddFreshens(t *testing.T) {
	s := NewStore(2)
	s.Add("a", "1")
	s.Add("b", "2")
	s.Add("a", "1") // freshen, not duplicate
	s.Add("c", "3")
	if !s.Contains("a", "1") || s.Contains("b", "2") {
		t.Fatal("re-Add did not freshen recency")
	}
}

func TestEvictionMaintainsQueryIndex(t *testing.T) {
	s := NewStore(1)
	s.Add("q", "t1")
	s.Add("q", "t2") // evicts (q,t1)
	got := s.Targets("q")
	if len(got) != 1 || got[0] != "t2" {
		t.Fatalf("Targets after eviction = %v, want [t2]", got)
	}
}

// TestHeldTargetsNeverChange: a Targets slice is the store's own, so a
// holder must see it unchanged after a later Add to the same query and
// an eviction from it, which store new slices; each slice is in
// canonical order with no spare capacity an append could write into.
func TestHeldTargetsNeverChange(t *testing.T) {
	s := NewStore(5)
	s.Add("q", "t2")
	s.Add("q", "t4")
	s.Add("q", "t1")
	s.Add("x", "u")
	type held struct {
		got, want []string
	}
	var holds []held
	hold := func(when string, want ...string) {
		t.Helper()
		got := s.Targets("q")
		holds = append(holds, held{got, want})
		for _, h := range holds {
			if !slices.Equal(h.got, h.want) || cap(h.got) != len(h.got) {
				t.Fatalf("%s: held %v (cap %d), want %v (cap %d)", when, h.got, cap(h.got), h.want, len(h.want))
			}
		}
	}
	hold("three adds", "t1", "t2", "t4")
	s.Add("q", "t3")
	hold("an add inside the list", "t1", "t2", "t3", "t4")
	s.Add("x", "v") // evicts (q, t2)
	hold("an eviction", "t1", "t3", "t4")
}

func TestUnboundedNeverFull(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 1000; i++ {
		s.Add(fmt.Sprintf("q%d", i), "t")
	}
	if s.Full() {
		t.Fatal("unbounded store reported full")
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{
		None:      "no-cache",
		Multi:     "multi-cache",
		Single:    "single-cache",
		LRU:       "lru",
		Policy(0): "unknown",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", p, got, want)
		}
	}
}

// Property: a bounded store never exceeds capacity, and Len equals the
// number of distinct live pairs.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw)%10 + 1
		s := NewStore(capacity)
		live := make(map[pair]bool)
		for _, op := range ops {
			q := fmt.Sprintf("q%d", op%7)
			tgt := fmt.Sprintf("t%d", (op/7)%5)
			s.Add(q, tgt)
			live[pair{q, tgt}] = true
			if s.Len() > capacity {
				return false
			}
		}
		// Every reported target must be a pair that was added at some point.
		for p := range live {
			for _, got := range s.Targets(p.query) {
				if !live[pair{p.query, got}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with unbounded capacity, every added pair remains retrievable.
func TestUnboundedRetentionProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewStore(0)
		added := make(map[pair]bool)
		for _, op := range ops {
			q := fmt.Sprintf("q%d", op%11)
			tgt := fmt.Sprintf("t%d", (op/11)%13)
			s.Add(q, tgt)
			added[pair{q, tgt}] = true
		}
		for p := range added {
			if !s.Contains(p.query, p.target) {
				return false
			}
		}
		return s.Len() == len(added)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
