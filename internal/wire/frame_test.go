package wire

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
		id, got, err := r.readFrame()
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
