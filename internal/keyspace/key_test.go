package keyspace

import (
	"crypto/sha1"
	"math/big"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewKeyDeterministic(t *testing.T) {
	a := NewKey("/article/author/last/Smith")
	b := NewKey("/article/author/last/Smith")
	if !a.Equal(b) {
		t.Fatalf("same identifier hashed to different keys: %s vs %s", a, b)
	}
	c := NewKey("/article/author/last/Doe")
	if a.Equal(c) {
		t.Fatalf("distinct identifiers hashed to the same key %s", a)
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	k := NewKey("round-trip")
	parsed, err := ParseKey(k.String())
	if err != nil {
		t.Fatalf("ParseKey(%q): %v", k.String(), err)
	}
	if !parsed.Equal(k) {
		t.Fatalf("round trip mismatch: %s != %s", parsed, k)
	}
}

func TestParseKeyErrors(t *testing.T) {
	cases := []string{"", "zz", "abcd", "0123456789abcdef"}
	for _, in := range cases {
		if _, err := ParseKey(in); err == nil {
			t.Errorf("ParseKey(%q) succeeded, want error", in)
		}
	}
}

func TestKeyFromBytes(t *testing.T) {
	raw := make([]byte, Size)
	raw[0] = 0xAB
	k, err := KeyFromBytes(raw)
	if err != nil {
		t.Fatalf("KeyFromBytes: %v", err)
	}
	if k[0] != 0xAB {
		t.Fatalf("byte not preserved: %x", k[0])
	}
	if _, err := KeyFromBytes(raw[:5]); err == nil {
		t.Fatal("short slice accepted")
	}
}

func TestCmp(t *testing.T) {
	var zero, one, max Key
	one[Size-1] = 1
	for i := range max {
		max[i] = 0xFF
	}
	tests := []struct {
		name string
		a, b Key
		want int
	}{
		{"zero<one", zero, one, -1},
		{"one>zero", one, zero, 1},
		{"equal", one, one, 0},
		{"zero<max", zero, max, -1},
		{"max>one", max, one, 1},
	}
	for _, tc := range tests {
		if got := tc.a.Cmp(tc.b); got != tc.want {
			t.Errorf("%s: Cmp=%d, want %d", tc.name, got, tc.want)
		}
	}
}

func keyFromUint(v uint64) Key {
	var k Key
	for i := 0; i < 8; i++ {
		k[Size-1-i] = byte(v >> (8 * i))
	}
	return k
}

func TestBetween(t *testing.T) {
	k10, k20, k30 := keyFromUint(10), keyFromUint(20), keyFromUint(30)
	tests := []struct {
		name           string
		k, from, to    Key
		want, wantOpen bool
	}{
		{"inside", k20, k10, k30, true, true},
		{"below", k10, k20, k30, false, false},
		{"at-from", k10, k10, k30, false, false},
		{"at-to", k30, k10, k30, true, false},
		{"wrap-inside-high", k30, k20, k10, true, true},
		{"wrap-inside-low", keyFromUint(5), k20, k10, true, true},
		{"wrap-outside", keyFromUint(15), k20, k10, false, false},
		{"full-circle", k20, k10, k10, true, true},
		{"full-circle-at-point", k10, k10, k10, true, false},
	}
	for _, tc := range tests {
		if got := tc.k.Between(tc.from, tc.to); got != tc.want {
			t.Errorf("%s: Between=%v, want %v", tc.name, got, tc.want)
		}
		if got := tc.k.BetweenOpen(tc.from, tc.to); got != tc.wantOpen {
			t.Errorf("%s: BetweenOpen=%v, want %v", tc.name, got, tc.wantOpen)
		}
	}
}

func TestAddPowersOfTwo(t *testing.T) {
	base := keyFromUint(0)
	for exp := uint(0); exp < 64; exp += 7 {
		got := base.Add(exp)
		want := keyFromUint(1 << exp)
		if !got.Equal(want) {
			t.Errorf("Add(%d) = %s, want %s", exp, got, want)
		}
	}
}

func TestAddCarryPropagation(t *testing.T) {
	// 0xFF...FF + 2^0 wraps to zero.
	var max, zero Key
	for i := range max {
		max[i] = 0xFF
	}
	if got := max.Add(0); !got.Equal(zero) {
		t.Fatalf("max+1 = %s, want zero", got)
	}
	// A carry across one byte boundary: 0x00FF + 1 = 0x0100.
	k := keyFromUint(0xFF)
	if got, want := k.Add(0), keyFromUint(0x100); !got.Equal(want) {
		t.Fatalf("0xFF+1 = %s, want %s", got, want)
	}
}

func TestAddOutOfRangeExp(t *testing.T) {
	k := NewKey("x")
	if got := k.Add(Bits); !got.Equal(k) {
		t.Fatalf("Add(%d) must be identity, got %s", Bits, got)
	}
}

func TestDistance(t *testing.T) {
	a, b := keyFromUint(10), keyFromUint(25)
	if d := a.Distance(b); d.Cmp(big.NewInt(15)) != 0 {
		t.Fatalf("Distance(10,25) = %v, want 15", d)
	}
	// Wrapping distance: from 25 back to 10 goes almost all the way round.
	mod := new(big.Int).Lsh(big.NewInt(1), Bits)
	want := new(big.Int).Sub(mod, big.NewInt(15))
	if d := b.Distance(a); d.Cmp(want) != 0 {
		t.Fatalf("Distance(25,10) = %v, want %v", d, want)
	}
	if d := a.Distance(a); d.Sign() != 0 {
		t.Fatalf("Distance(a,a) = %v, want 0", d)
	}
}

// Property: Add(exp) agrees with big-integer arithmetic mod 2^160.
func TestAddMatchesBigIntProperty(t *testing.T) {
	mod := new(big.Int).Lsh(big.NewInt(1), Bits)
	f := func(seed uint64, expRaw uint8) bool {
		exp := uint(expRaw) % Bits
		k := NewKey(strconv.FormatUint(seed, 10))
		sum := k.Add(exp)
		got := new(big.Int).SetBytes(sum[:])
		want := new(big.Int).SetBytes(k[:])
		want.Add(want, new(big.Int).Lsh(big.NewInt(1), exp))
		want.Mod(want, mod)
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for distinct from != to, exactly one of Between(from,to) and
// Between(to,from) holds for any k not equal to an endpoint; the two
// half-open intervals partition the circle.
func TestBetweenPartitionProperty(t *testing.T) {
	f := func(a, b, c uint64) bool {
		k := NewKey(strconv.FormatUint(a, 36))
		from := NewKey(strconv.FormatUint(b, 36))
		to := NewKey(strconv.FormatUint(c, 36))
		if from.Equal(to) || k.Equal(from) || k.Equal(to) {
			return true // degenerate; covered by table tests
		}
		x := k.Between(from, to)
		y := k.Between(to, from)
		return x != y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Distance(a,b) + Distance(b,a) == 2^160 for a != b.
func TestDistanceAntisymmetryProperty(t *testing.T) {
	mod := new(big.Int).Lsh(big.NewInt(1), Bits)
	f := func(a, b uint64) bool {
		ka := NewKey(strconv.FormatUint(a, 36))
		kb := NewKey(strconv.FormatUint(b, 36))
		if ka.Equal(kb) {
			return ka.Distance(kb).Sign() == 0
		}
		sum := new(big.Int).Add(ka.Distance(kb), kb.Distance(ka))
		return sum.Cmp(mod) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ClockwiseTo agrees with the big-integer Distance.
func TestClockwiseToMatchesDistanceProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		ka := NewKey(strconv.FormatUint(a, 36))
		kb := NewKey(strconv.FormatUint(b, 36))
		got := ka.ClockwiseTo(kb)
		want := ka.Distance(kb)
		return new(big.Int).SetBytes(got[:]).Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockwiseToBasics(t *testing.T) {
	a, b := keyFromUint(10), keyFromUint(25)
	if got := a.ClockwiseTo(b); !got.Equal(keyFromUint(15)) {
		t.Fatalf("ClockwiseTo(10,25) = %s", got)
	}
	if got := a.ClockwiseTo(a); !got.Equal(keyFromUint(0)) {
		t.Fatalf("ClockwiseTo(a,a) = %s", got)
	}
	// Wrap: 25 -> 10 is 2^160 - 15.
	wrapped := b.ClockwiseTo(a)
	sum := new(big.Int).Add(new(big.Int).SetBytes(wrapped[:]), big.NewInt(15))
	if sum.Cmp(new(big.Int).Lsh(big.NewInt(1), Bits)) != 0 {
		t.Fatalf("wrapped distance wrong: %s", wrapped)
	}
}

// TestNewKeyAllocFree: an identifier up to the stack buffer's size hashes
// without a heap allocation, and one past it hashes to the same key a
// plain SHA-1 gives.
func TestNewKeyAllocFree(t *testing.T) {
	id := strings.Repeat("x", 256)
	if allocs := testing.AllocsPerRun(100, func() { _ = NewKey(id) }); allocs != 0 {
		t.Fatalf("NewKey(256 bytes) = %v allocs, want 0", allocs)
	}
	for _, n := range []int{0, 255, 256, 257, 1000} {
		id := strings.Repeat("y", n)
		if got, want := NewKey(id), Key(sha1.Sum([]byte(id))); got != want {
			t.Errorf("NewKey(%d bytes) = %s, want %s", n, got, want)
		}
	}
}

func BenchmarkNewKey(b *testing.B) {
	id := "/article[author[first=John][last=Smith]][conf=SIGCOMM][size=315635][title=TCP][year=1989]"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewKey(id)
	}
}
