package wire

import (
	"reflect"
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
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	for i, want := range codecMessages() {
		enc := appendMessage(nil, &want)
		var got Message
		if err := decodeMessage(enc, &got); err != nil {
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
	if err := decodeMessage(enc, &got); err != nil {
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
			if err := decodeMessage(enc[:cut], &got); err == nil {
				t.Fatalf("message %d: truncation to %d bytes decoded cleanly", i, cut)
			}
		}
		// Trailing garbage must be rejected too: a frame's declared
		// length is exact.
		var got Message
		if err := decodeMessage(append(append([]byte(nil), enc...), 0xff), &got); err == nil {
			t.Fatalf("message %d: trailing byte accepted", i)
		}
	}
	var got Message
	if err := decodeMessage([]byte{binMsgVersion + 1, 1, 0}, &got); err == nil {
		t.Fatal("wrong version accepted")
	}
	if err := decodeMessage(nil, &got); err == nil {
		t.Fatal("empty payload accepted")
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
		if err := decodeMessage(scalar, &got); err != nil {
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

// BenchmarkBinaryCodecDecode measures decoding a scalar-only routed get
// — the frame shape that dominates steady state — into a reused target.
// Run with -benchmem: allocs/op must report 0.
func BenchmarkBinaryCodecDecode(b *testing.B) {
	enc := appendMessage(nil, &Message{Op: OpGet, Key: keyspace.NewKey("k"), BudgetMicros: 1234, TTL: 9, Ok: true})
	var got Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeMessage(enc, &got); err != nil {
			b.Fatal(err)
		}
	}
}
