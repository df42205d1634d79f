package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The fuzz seed corpus doubles as a committed regression suite
// (testdata/fuzz/<Target>/): every valid message shape plus a spread of
// corruptions, so `go test` alone replays them all and `go test -fuzz`
// starts from meaningful coverage instead of empty bytes.

// fuzzMaxBytes is the cap both targets decode under: small enough that
// a fuzz-sized input can front-code its way past it.
const fuzzMaxBytes = 4 << 10

// fuzzSeeds returns the byte-level seed inputs shared by both targets:
// the encodings of every codecMessages shape, systematic corruptions of
// the richest one, and a frame whose shared prefixes rebuild far more
// than it carries.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for i := range codecMessages() {
		m := codecMessages()[i]
		seeds = append(seeds, appendMessage(nil, &m))
	}
	rich := codecMessages()[7] // KV-bearing transfer
	enc := appendMessage(nil, &rich)
	seeds = append(seeds,
		enc[:len(enc)/2], // truncated mid-payload
		append(append([]byte(nil), enc...), 0xff), // trailing garbage
		[]byte{},                        // empty
		[]byte{binMsgVersion},           // header only
		[]byte{binMsgVersion + 1, 1, 0}, // wrong version
		[]byte{binMsgVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge uvarint op
	)
	// A frame that declares a giant element count with no payload behind
	// it: the decoder must refuse before allocating.
	seeds = append(seeds, append(appendUvarint(append([]byte{binMsgVersion}, 0), 1<<40), 0x08))
	return append(seeds, hostileFrame())
}

// FuzzMessageRoundTrip drives the decoder with arbitrary bytes and, for
// every input it accepts, pins the codec's self-consistency: re-encoding
// the decoded message and decoding that must reproduce it exactly.
func FuzzMessageRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := decodeMessage(data, &m, fuzzMaxBytes, nil); err != nil {
			return // rejected inputs are FuzzDecodeCorrupt's concern
		}
		enc := appendMessage(nil, &m)
		var back Message
		if err := decodeMessage(enc, &back, fuzzMaxBytes, nil); err != nil {
			t.Fatalf("re-encoding of accepted input fails to decode: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip diverged:\n first  %+v\n second %+v", m, back)
		}
	})
}

// FuzzDecodeCorrupt feeds the decoder corrupt, truncated and oversized
// frames. The decoder must return an error or a message — never panic —
// and must bound its allocations: a declared element count is only
// trusted after the remaining bytes prove it payable, so a 12-byte frame
// cannot make the decoder allocate gigabytes, and the strings it builds
// stay within the cap however much of each other they share.
func FuzzDecodeCorrupt(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		err := decodeMessage(data, &m, fuzzMaxBytes, nil)
		if err != nil {
			return
		}
		// Accepted: the decoded slices must be payable by the input —
		// each KV element costs at least a key, each entry at least its
		// three tag and length bytes. A looser bound would mean the count-checked
		// allocation guard regressed.
		elems := len(m.Entries) + len(m.Addrs) + len(m.Digests) + len(m.EntriesByKind) + len(m.BytesByKind)
		for _, kv := range m.KV {
			elems += 1 + len(kv.Entries) + len(kv.Tombs)
		}
		if elems > len(data) {
			t.Fatalf("decoder materialized %d elements from %d input bytes", elems, len(data))
		}
		if n := stringBytes(&m); n > fuzzMaxBytes {
			t.Fatalf("decoder built %d string bytes under a %d-byte cap", n, fuzzMaxBytes)
		}
	})
}

// stringBytes is the total length of the strings m holds.
func stringBytes(m *Message) int {
	n := len(m.Addr) + len(m.Err) + len(m.Entry.Kind) + len(m.Entry.Value)
	for _, e := range m.Entries {
		n += len(e.Kind) + len(e.Value)
	}
	for _, kv := range m.KV {
		for _, e := range kv.Entries {
			n += len(e.Kind) + len(e.Value)
		}
		for _, t := range kv.Tombs {
			n += len(t.Entry.Kind) + len(t.Entry.Value)
		}
	}
	for _, a := range m.Addrs {
		n += len(a)
	}
	for k := range m.EntriesByKind {
		n += len(k)
	}
	for k := range m.BytesByKind {
		n += len(k)
	}
	return n
}

// TestWriteFuzzCorpus materializes fuzzSeeds as committed corpus files
// under testdata/fuzz/. It only runs when WIRE_WRITE_FUZZ_CORPUS=1 —
// regenerate after changing codecMessages or the wire format:
//
//	WIRE_WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/wire/
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WIRE_WRITE_FUZZ_CORPUS") != "1" {
		t.Skip("set WIRE_WRITE_FUZZ_CORPUS=1 to regenerate the committed corpus")
	}
	for _, target := range []string{"FuzzMessageRoundTrip", "FuzzDecodeCorrupt"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range fuzzSeeds() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
