package wire

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// opUnassigned is an op value this build assigns to nothing: the codec
// carries it like any other (the committed fuzz corpus holds a seed with
// it), dispatch answers "unknown operation".
const opUnassigned = OpGetBatch + 1

// codecMessages is a spread of message shapes covering every field of
// the envelope, shared by the round-trip test and the fuzz seed corpus.
func codecMessages() []Message {
	k1 := keyspace.NewKey("alpha")
	k2 := keyspace.NewKey("beta")
	return []Message{
		{},
		{Op: OpPing},
		{Op: OpGet, Key: k1, BudgetMicros: 2500},
		{Op: OpFindSuccessor, Key: k2, Addr: "127.0.0.1:9001", TTL: 32, Hops: 3},
		{Op: OpPut, Key: k1, Entry: overlay.Entry{Kind: "article", Value: "a/b/c"}},
		{Op: OpGet, Ok: true, Entries: []overlay.Entry{{Kind: "x", Value: "y"}, {Kind: "k2", Value: ""}}},
		{Op: OpPut, Code: CodeOverload, Err: "shed: queue full"},
		{Op: OpTransfer, KV: []KeyEntries{
			{Key: k1, Entries: []overlay.Entry{{Kind: "a", Value: "v"}}},
			{Key: k2, Tombs: []Tombstone{{Entry: overlay.Entry{Kind: "t", Value: "w"}, At: -7}, {Entry: overlay.Entry{}, At: 1 << 60}}},
		}},
		{Op: OpRepairSync, Digests: []KeyDigest{{Key: k1, Digest: 0xdeadbeefcafef00d}, {Key: k2}}},
		{Op: OpGetSuccessor, Ok: true, Addrs: []string{"a:1", "b:2", ""}},
		{Op: OpStats, Ok: true, Keys: 42,
			EntriesByKind: map[string]int{"article": 10, "": -1},
			BytesByKind:   map[string]int64{"article": 1 << 40}},
		{Op: opUnassigned, Ok: true},
		{Op: OpMerge, Key: k2, Addr: "merge", TTL: -1, Hops: -2, BudgetMicros: -3, Code: 5, Keys: -9},
		// A batched read: keys only on the way out; on the way back the
		// owned keys with their entries, one of them holding nothing.
		{Op: OpGetBatch, BudgetMicros: 900, KV: []KeyEntries{{Key: k1}, {Key: k2}}},
		{Op: OpGetBatch, Ok: true, Addr: "127.0.0.1:9002", KV: []KeyEntries{
			{Key: k1, Entries: []overlay.Entry{{Kind: "index", Value: "/article[author]"}, {Kind: "index", Value: "/article[title]"}}},
			{Key: k2},
		}},
		// A Get reply in store order: neighbouring values share most of
		// their bytes, and a change of kind breaks the kind run.
		{Op: OpGet, Ok: true, Addr: "127.0.0.1:9003", Hops: 1, Entries: []overlay.Entry{
			{Kind: "file", Value: "notes.pdf"},
			{Kind: "index", Value: "/article[author[first/Ada][last/Lovelace]]"},
			{Kind: "index", Value: "/article[author[first/Ada][last/Lovelace]][title/Notes]"},
			{Kind: "index", Value: "/article[author[first/Alan][last/Turing]]"},
		}},
		// A batched reply whose chain runs on from one KV item to the next.
		{Op: OpGetBatch, Ok: true, KV: []KeyEntries{
			{Key: k1, Entries: []overlay.Entry{{Kind: "index", Value: "/article[author[last/Lovelace]]"}}},
			{Key: k2, Entries: []overlay.Entry{{Kind: "index", Value: "/article[author[last/Turing]]"}, {Kind: "index", Value: "/article[author[last/Turing]]/x"}}},
		}},
		// A hand-over whose tombstones share prefixes with the entries
		// before them, and with each other.
		{Op: OpTransfer, KV: []KeyEntries{
			{Key: k1, Entries: []overlay.Entry{{Kind: "index", Value: "/article[title/Notes]"}},
				Tombs: []Tombstone{{Entry: overlay.Entry{Kind: "index", Value: "/article[title/Notes][year]"}, At: 7}, {Entry: overlay.Entry{Kind: "file", Value: "/article"}, At: -1}}},
		}},
		// A conditional get, owner-addressed, offering the digest of the
		// set the client holds, and the owner's unchanged verdict.
		{Op: OpGet, Key: k1, TTL: 32, BudgetMicros: 2500, Digests: []KeyDigest{{Key: k1, Digest: 0x8000000000000001}}},
		{Op: OpGet, Code: CodeUnchanged, Ok: true, Addr: "127.0.0.1:9003", Hops: 1},
		// A conditional batched read: each offered key travels once, in
		// Digests, the others in KV. The reply lists the unoffered and
		// changed keys with their entries in KV, and the unchanged ones
		// in Digests, each with the digest it was offered.
		{Op: OpGetBatch, BudgetMicros: 900, KV: []KeyEntries{{Key: k2}}, Digests: []KeyDigest{{Key: k1, Digest: 0x8000000000000001}}},
		{Op: OpGetBatch, Ok: true, Addr: "127.0.0.1:9002",
			KV:      []KeyEntries{{Key: k2, Entries: []overlay.Entry{{Kind: "index", Value: "/article[author[last/Turing]]"}}}},
			Digests: []KeyDigest{{Key: k1, Digest: 0x8000000000000001}}},
		// A remove batch naming two entries of one key by digest and, as
		// the fallback, one entry whole; and an owner's reply: the count,
		// the emptied key, the acked replica and the digest it could not
		// resolve, for a whole re-send (DESIGN.md §44).
		{Op: OpRemoveBatch, TTL: 32,
			KV:      []KeyEntries{{Key: k2, Entries: []overlay.Entry{{Kind: "index", Value: "/article[author[last/Turing]]"}}}},
			Digests: []KeyDigest{{Key: k1, Digest: 0x243f6a8885a308d3}, {Key: k1, Digest: 0x13198a2e03707344}}},
		{Op: OpRemoveBatch, Ok: true, Keys: 1, KV: []KeyEntries{{Key: k2}}, Addrs: []string{"127.0.0.1:9004"},
			Digests: []KeyDigest{{Key: k1, Digest: 0x13198a2e03707344}}},
	}
}

// hostileFrame is a frame of about 1.1 MiB whose entries decode to about
// 10.5 MiB: one 1 MiB value, then nine that each share all of the one
// before and add 12 KiB.
func hostileFrame() []byte {
	value := strings.Repeat("a", 1<<20)
	entries := []overlay.Entry{{Kind: "index", Value: value}}
	for i := 0; i < 9; i++ {
		value += strings.Repeat(string(rune('b'+i)), 12<<10)
		entries = append(entries, overlay.Entry{Kind: "index", Value: value})
	}
	return appendMessage(nil, &Message{Op: OpGet, Ok: true, Entries: entries})
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	for i, want := range codecMessages() {
		enc := appendMessage(nil, &want)
		var got Message
		if err := decodeMessage(enc, &got, DefaultMaxMessageSize, nil); err != nil {
			t.Fatalf("message %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("message %d: round trip mismatch\n want %+v\n got  %+v", i, want, got)
		}
	}
}

func TestBinaryCodecDecodeResetsTarget(t *testing.T) {
	full := codecMessages()[7] // KV-bearing message
	enc := appendMessage(nil, &Message{Op: OpPing})
	got := full
	if err := decodeMessage(enc, &got, DefaultMaxMessageSize, nil); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, Message{Op: OpPing}) {
		t.Fatalf("reused target kept stale fields: %+v", got)
	}
}

func TestBinaryCodecRejectsCorrupt(t *testing.T) {
	for i, m := range codecMessages() {
		enc := appendMessage(nil, &m)
		// Every truncation must error, never panic.
		for cut := 0; cut < len(enc); cut++ {
			var got Message
			if err := decodeMessage(enc[:cut], &got, DefaultMaxMessageSize, nil); err == nil {
				t.Fatalf("message %d: truncation to %d bytes decoded cleanly", i, cut)
			}
		}
		// Trailing garbage must be rejected too: a frame's declared
		// length is exact.
		var got Message
		if err := decodeMessage(append(append([]byte(nil), enc...), 0xff), &got, DefaultMaxMessageSize, nil); err == nil {
			t.Fatalf("message %d: trailing byte accepted", i)
		}
	}
	var got Message
	if err := decodeMessage([]byte{binMsgVersion + 1, 1, 0}, &got, DefaultMaxMessageSize, nil); err == nil {
		t.Fatal("wrong version accepted")
	}
	if err := decodeMessage(nil, &got, DefaultMaxMessageSize, nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// chainFrame is a Get reply whose count Entries are coded by hand.
func chainFrame(count int, coded ...byte) []byte {
	b := appendUvarint([]byte{binMsgVersion, byte(OpGet)}, binHasEntries)
	b = appendUvarint(b, uint64(count))
	return append(b, coded...)
}

// TestBinaryCodecRejectsBadChain: an entry may share no more than the
// previous value and repeat the kind of an entry only after one, in
// Entries and in KV alike.
func TestBinaryCodecRejectsBadChain(t *testing.T) {
	var got Message
	// {k a} twice: a kind back-reference and a whole shared value.
	if err := decodeMessage(chainFrame(2, 2, 'k', 0, 1, 'a', 0, 1, 0), &got, DefaultMaxMessageSize, nil); err != nil ||
		!reflect.DeepEqual(got.Entries, []overlay.Entry{{Kind: "k", Value: "a"}, {Kind: "k", Value: "a"}}) {
		t.Fatalf("well-formed chain: %+v, %v", got.Entries, err)
	}
	kvFirst := appendUvarint([]byte{binMsgVersion, byte(OpTransfer)}, binHasKV)
	kvFirst = append(appendUvarint(kvFirst, 1), make([]byte, keyspace.Size)...)
	kvFirst = append(kvFirst, 1, 0, 0, 1, 'a', 0)
	for name, frame := range map[string][]byte{
		"prefix past the previous value":   chainFrame(2, 2, 'k', 0, 1, 'a', 0, 2, 0),
		"prefix with no previous value":    chainFrame(1, 2, 'k', 1, 0),
		"kind back-reference first":        chainFrame(1, 0, 0, 1, 'a'),
		"kind back-reference first, in KV": kvFirst,
	} {
		if err := decodeMessage(frame, &got, DefaultMaxMessageSize, nil); err == nil {
			t.Errorf("%s: decoded to %+v", name, got)
		}
	}
}

// TestBinaryCodecCapsDecodedBytes: a 1.1 MiB frame whose shared prefixes
// would rebuild 10.5 MiB of values is refused at the 8 MiB frame cap,
// having allocated no more than the cap; under a cap above what it
// rebuilds, the same frame decodes.
func TestBinaryCodecCapsDecodedBytes(t *testing.T) {
	frame := hostileFrame()
	if len(frame) > 1200<<10 {
		t.Fatalf("hostile frame is %d bytes, want about 1.1 MiB", len(frame))
	}
	var got Message
	if err := decodeMessage(frame, &got, 16<<20, nil); err != nil || len(got.Entries) != 10 {
		t.Fatalf("under a 16 MiB cap: %d entries, %v", len(got.Entries), err)
	}
	got = Message{}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeMessage(frame, &got, DefaultMaxMessageSize, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errBinTooLarge) {
		t.Fatalf("decode under the default cap: %v, want %v", err, errBinTooLarge)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > DefaultMaxMessageSize {
		t.Fatalf("refused decode allocated %d bytes, past the %d-byte cap", n, DefaultMaxMessageSize)
	}
}

// TestBinaryCodecEntryDecodeAllocs pins what a front-coded Get reply
// costs to decode on a connection: the slice, the first kind, and one
// buffer that every value is a substring of; the repeated kinds are
// shared, and the serving node's Addr is the connection's last one. An
// unchanged reply to a conditional get (DESIGN.md §37) decodes to
// nothing at all.
func TestBinaryCodecEntryDecodeAllocs(t *testing.T) {
	const n = 16
	entries := make([]overlay.Entry, n)
	for i := range entries {
		entries[i] = overlay.Entry{Kind: "index", Value: fmt.Sprintf("/article[author[last/L%02d]]", i)}
	}
	const server = "127.0.0.1:21001"
	lastAddr := server
	var got Message
	for _, c := range []struct {
		name  string
		reply Message
		want  float64
	}{
		{"16-entry reply", Message{Op: OpGet, Ok: true, Addr: server, Hops: 1, Entries: entries}, 3},
		{"unchanged reply", Message{Op: OpGet, Code: CodeUnchanged, Ok: true, Addr: server, Hops: 1}, 0},
	} {
		enc := appendMessage(nil, &c.reply)
		if a := testing.AllocsPerRun(100, func() {
			if err := decodeMessage(enc, &got, DefaultMaxMessageSize, &lastAddr); err != nil {
				t.Fatal(err)
			}
		}); a != c.want {
			t.Fatalf("%s: decoding allocates %v times, want %v", c.name, a, c.want)
		}
		if !reflect.DeepEqual(got, c.reply) {
			t.Fatalf("%s: decoded %+v, want %+v", c.name, got, c.reply)
		}
	}
}

// TestBinaryCodecSteadyStateAllocs pins the zero-alloc contract from
// ISSUE 10: once scratch buffers are warm, encoding any message shape
// allocates nothing, and decoding a scalar-only message (the ping /
// routing / ack frames that dominate steady state) allocates nothing.
func TestBinaryCodecSteadyStateAllocs(t *testing.T) {
	msgs := codecMessages()
	scratch := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() {
		for i := range msgs {
			scratch = appendMessage(scratch[:0], &msgs[i])
		}
	}); n != 0 {
		t.Fatalf("encode allocates %v times per run, want 0", n)
	}
	scalar := appendMessage(nil, &Message{Op: OpGet, Key: keyspace.NewKey("k"), BudgetMicros: 1234, TTL: 9, Ok: true})
	var got Message
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeMessage(scalar, &got, DefaultMaxMessageSize, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("scalar decode allocates %v times per run, want 0", n)
	}
}

// TestBinaryCodecCompactness pins the size that motivates the codec: a
// routed get's request payload fits in 32 bytes.
func TestBinaryCodecCompactness(t *testing.T) {
	m := Message{Op: OpGet, Key: keyspace.NewKey("article"), BudgetMicros: 150000}
	enc := appendMessage(nil, &m)
	if len(enc) > 32 {
		t.Fatalf("routed get encodes to %d bytes, want ≤ 32", len(enc))
	}
}

// BenchmarkBinaryCodecEncode measures the hand-rolled encoder over the
// full shape spread with a warm scratch buffer — the steady state of a
// pooled connection's write path. Run with -benchmem: allocs/op must
// report 0.
func BenchmarkBinaryCodecEncode(b *testing.B) {
	msgs := codecMessages()
	scratch := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = appendMessage(scratch[:0], &msgs[i%len(msgs)])
	}
}

// BenchmarkBinaryCodecDecode measures decoding into a reused target: a
// scalar-only routed get — the frame shape that dominates steady state,
// whose allocs/op must report 0 under -benchmem — and front-coded Get
// replies of 16 and 64 index entries whose values share prefixes, as a
// store's sorted sets do (3 allocations each, and their Addr).
func BenchmarkBinaryCodecDecode(b *testing.B) {
	get := func(n int) Message {
		entries := make([]overlay.Entry, n)
		for i := range entries {
			entries[i] = overlay.Entry{Kind: "index", Value: fmt.Sprintf(
				"/article[author[first/F%03d][last/Lastname%03d]][title/Some title %d]", i/4, i/2, i)}
		}
		return Message{Op: OpGet, Ok: true, Addr: "127.0.0.1:40000", Entries: entries}
	}
	for _, c := range []struct {
		name string
		msg  Message
	}{
		{"scalar", Message{Op: OpGet, Key: keyspace.NewKey("k"), BudgetMicros: 1234, TTL: 9, Ok: true}},
		{"get16", get(16)},
		{"get64", get(64)},
	} {
		b.Run(c.name, func(b *testing.B) {
			enc := appendMessage(nil, &c.msg)
			var got Message
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := decodeMessage(enc, &got, DefaultMaxMessageSize, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
