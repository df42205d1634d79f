package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// TestFrameScratchNotPinnedByLargeFrame: one frame past maxKeptScratch
// (a leaving node's whole-store OpTransfer) passes through both ends of
// a connection without staying resident as scratch, and the small frames
// around it keep reusing theirs without allocating on the write side.
func TestFrameScratchNotPinnedByLargeFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer dialed.Close()
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer accepted.Close()
	var in, out atomic.Int64
	w := newCodec(dialed, DefaultMaxMessageSize, &in, &out)
	r := newCodec(accepted, DefaultMaxMessageSize, &in, &out)

	small := Message{Op: OpPing, Addr: "small"}
	large := Message{Op: OpTransfer, Entries: []overlay.Entry{{Kind: "blob", Value: strings.Repeat("x", 4*maxKeptScratch)}}}
	exchange := func(m *Message) {
		t.Helper()
		if err := w.writeFrame(7, m, time.Second); err != nil {
			t.Fatalf("write: %v", err)
		}
		var got Message
		id, err := r.readFrame(&got)
		if err != nil || id != 7 || got.Op != m.Op || len(got.Entries) != len(m.Entries) {
			t.Fatalf("read: id %d, %+v, %v", id, got.Op, err)
		}
	}
	exchange(&small)
	exchange(&large)
	if cap(w.wbuf) > maxKeptScratch || cap(r.rbuf) > maxKeptScratch {
		t.Fatalf("scratch kept after a %d-byte frame: write %d, read %d bytes; want ≤ %d",
			4*maxKeptScratch, cap(w.wbuf), cap(r.rbuf), maxKeptScratch)
	}
	exchange(&small)
	if n := testing.AllocsPerRun(100, func() {
		if err := w.writeFrame(7, &small, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state small frame allocates %v times on the write side, want 0", n)
	}
}

// frameSink is a connection that only collects what is written to it.
type frameSink struct {
	net.Conn
	buf bytes.Buffer
}

func (s *frameSink) Write(p []byte) (int, error) { return s.buf.Write(p) }

// frameBytes is the frame writeFrame sends for m under request ID id.
func frameBytes(t testing.TB, id uint64, m *Message) []byte {
	t.Helper()
	var in, out atomic.Int64
	sink := &frameSink{}
	if err := newCodec(sink, fuzzMaxBytes, &in, &out).writeFrame(id, m, 0); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	return sink.buf.Bytes()
}

// FuzzReadFrame feeds arbitrary byte streams through codec.readFrame:
// the header, the length cap and the payload's decode, frame after frame
// until the stream ends or is refused. Reading must never panic; a frame
// that declares more than the cap is refused, before its payload is
// allocated; and every frame read goes back through writeFrame into a
// frame that reads back equal.
func FuzzReadFrame(f *testing.F) {
	entries := make([]overlay.Entry, 16)
	for i := range entries {
		entries[i] = overlay.Entry{Kind: "index", Value: fmt.Sprintf("/article[author[last/L%02d]]", i)}
	}
	ping := frameBytes(f, 1, &Message{Op: OpPing, Addr: "127.0.0.1:7000"})
	get := frameBytes(f, 2, &Message{Op: OpGet, Ok: true, Entries: entries})
	k := keyspace.NewKey("/article[conf/INFOCOM]")
	offer := frameBytes(f, 3, &Message{Op: OpGet, Key: k, TTL: 32, Digests: []KeyDigest{{Key: k, Digest: 0x9e3779b97f4a7c15}}})
	unchanged := frameBytes(f, 3, &Message{Op: OpGet, Code: CodeUnchanged, Ok: true, Addr: "127.0.0.1:7000", Hops: 1})
	f.Add(ping)
	f.Add(get)
	f.Add(append(append([]byte(nil), ping...), get...))
	f.Add(offer)
	// Two verdicts: the second repeats the first's Addr.
	f.Add(append(append([]byte(nil), unchanged...), unchanged...))
	f.Add(ping[:frameHeaderSize-3]) // truncated header
	huge := append([]byte(nil), ping...)
	binary.BigEndian.PutUint32(huge[8:12], 1<<31) // declares 2 GiB
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		var in, out atomic.Int64
		c := newCodec(nil, fuzzMaxBytes, &in, &out)
		c.br = bufio.NewReader(bytes.NewReader(data))
		for rest := data; ; {
			var declared int64 // the frame's length, when the stream holds a header
			if len(rest) >= frameHeaderSize {
				declared = int64(binary.BigEndian.Uint32(rest[8:12]))
			}
			// A frame declaring a MiB or more must be refused having
			// allocated less than a MiB; smaller amounts are lost in
			// what the rest of the process allocates meanwhile.
			var before, after runtime.MemStats
			if declared >= 1<<20 {
				runtime.ReadMemStats(&before)
			}
			var m Message
			id, err := c.readFrame(&m)
			if declared >= 1<<20 {
				runtime.ReadMemStats(&after)
				if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
					t.Fatalf("refusing a frame that declares %d bytes allocated %d bytes", declared, n)
				}
			}
			if declared > fuzzMaxBytes && err == nil {
				t.Fatalf("a frame declaring %d bytes was read under a %d-byte cap", declared, fuzzMaxBytes)
			}
			if err != nil {
				return
			}
			rest = rest[frameHeaderSize+declared:]

			back := newCodec(nil, fuzzMaxBytes, &in, &out)
			back.br = bufio.NewReader(bytes.NewReader(frameBytes(t, id, &m)))
			var again Message
			againID, err := back.readFrame(&again)
			if err != nil {
				t.Fatalf("a frame writeFrame produced fails to read: %v", err)
			}
			if againID != id || !reflect.DeepEqual(m, again) {
				t.Fatalf("frame round trip diverged:\n first  %d %+v\n second %d %+v", id, m, againID, again)
			}
		}
	})
}
