package wire

// Nothing is negotiated on a connection: both ends speak the framed
// binary encoding, and the payload's version byte is the only seam to a
// peer that speaks something else. These tests pin what that seam does —
// a foreign frame closes the connection, on either end, without reaching
// a handler or stalling a caller — and that a fresh connection carries
// user frames from its first byte.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rawFrame builds one well-formed frame around an arbitrary payload.
func rawFrame(id uint64, payload []byte) []byte {
	b := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.BigEndian.PutUint64(b[0:8], id)
	binary.BigEndian.PutUint32(b[8:12], uint32(len(payload)))
	return append(b, payload...)
}

// startRawPeer runs a hand-rolled server that answers every request frame
// with reply's bytes as the payload, under the request's ID. It reports
// the first request ID of each accepted connection on firstIDs.
func startRawPeer(t *testing.T, reply func(payload []byte) []byte) (addr string, firstIDs chan uint64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	firstIDs = make(chan uint64, 16) // more connections than any test opens
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for first := true; ; first = false {
					var hdr [frameHeaderSize]byte
					if _, err := io.ReadFull(conn, hdr[:]); err != nil {
						return
					}
					id := binary.BigEndian.Uint64(hdr[0:8])
					payload := make([]byte, binary.BigEndian.Uint32(hdr[8:12]))
					if _, err := io.ReadFull(conn, payload); err != nil {
						return
					}
					if first {
						firstIDs <- id
					}
					if _, err := conn.Write(rawFrame(id, reply(payload))); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), firstIDs
}

// TestForeignFrameClosesServerConn: a client that writes a well-framed
// payload the binary decoder rejects — an older or a future format
// version, or the
// type-descriptor preamble a gob stream opens with — gets its connection
// closed without the handler running, and a pooled caller of the same
// server is unaffected.
func TestForeignFrameClosesServerConn(t *testing.T) {
	var handled atomic.Int64
	server := NewTCPTransport()
	addr, closer, err := server.Listen("127.0.0.1:0", func(req Message) Message {
		handled.Add(1)
		return echoHandler(req)
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer closer.Close()
	client := NewTCPTransport()
	defer client.CloseConnections()
	if _, err := client.Call(addr, Message{Op: OpPing, Addr: "before"}); err != nil {
		t.Fatalf("pooled call: %v", err)
	}

	for name, payload := range map[string][]byte{
		"version 1":    {1, byte(OpPing), 0}, // before entry lists were front-coded
		"next version": {binMsgVersion + 1, byte(OpPing), 0},
		"gob stream":   append([]byte{0x7f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07}, "Message"...),
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		if _, err := conn.Write(rawFrame(1, payload)); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("%s: read %d bytes, %v; want the server to close the connection", name, n, err)
		}
		conn.Close()
	}

	if resp, err := client.Call(addr, Message{Op: OpPing, Addr: "after"}); err != nil || resp.Addr != "echo:after" {
		t.Fatalf("pooled call after the foreign peers: %+v, %v", resp, err)
	}
	if got := handled.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2 (the pooled caller's requests only)", got)
	}
	if st := client.PoolStats(); st.Dials != 1 || st.Evictions != 0 {
		t.Fatalf("pooled caller was disturbed: %+v", st)
	}
}

// TestForeignReplyFailsCallFast: a server that answers in a format
// version this build does not speak tears the pooled connection down,
// and the caller gets ErrUnreachable at once instead of waiting out
// CallTimeout.
func TestForeignReplyFailsCallFast(t *testing.T) {
	addr, _ := startRawPeer(t, func([]byte) []byte {
		return []byte{binMsgVersion + 1, byte(OpPing), 0}
	})
	client := NewTCPTransport()
	client.CallTimeout = 30 * time.Second
	defer client.CloseConnections()
	start := time.Now()
	_, err := client.Call(addr, Message{Op: OpPing})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("call took %v: it waited for the call timeout instead of failing on the bad frame", took)
	}
	if st := client.PoolStats(); st.Evictions != 1 || st.Conns != 0 {
		t.Fatalf("connection was not evicted: %+v", st)
	}
}

// TestFreshConnCarriesUserFramesFirst: no handshake precedes traffic —
// the first frame on every fresh connection is the caller's request
// under ID 1 — and Dials counts exactly the connections opened.
func TestFreshConnCarriesUserFramesFirst(t *testing.T) {
	addr, firstIDs := startRawPeer(t, func(payload []byte) []byte {
		var req Message
		if err := decodeMessage(payload, &req, DefaultMaxMessageSize, nil); err != nil {
			return nil // an undecodable reply fails the call
		}
		return appendMessage(nil, &Message{Op: req.Op, Ok: true, Addr: "echo:" + req.Addr})
	})
	client := NewTCPTransport()
	defer client.CloseConnections()
	for dial := int64(1); dial <= 2; dial++ {
		for i := 0; i < 3; i++ {
			resp, err := client.Call(addr, Message{Op: OpPing, Addr: "user"})
			if err != nil || resp.Addr != "echo:user" {
				t.Fatalf("conn %d call %d: %+v, %v", dial, i, resp, err)
			}
		}
		if id := <-firstIDs; id != 1 {
			t.Fatalf("conn %d: first frame carried request ID %d, want 1", dial, id)
		}
		if got := client.PoolStats().Dials; got != dial {
			t.Fatalf("Dials = %d with %d connections opened", got, dial)
		}
		client.CloseConnections()
	}
	if len(firstIDs) != 0 {
		t.Fatalf("the peer accepted %d connections beyond the 2 dialed", len(firstIDs))
	}
}

// TestUnassignedOpIsUnknown: an op value this build assigns to nothing
// crosses the codec (TestBinaryCodecRoundTrip) and is refused by a
// node's dispatch by name.
func TestUnassignedOpIsUnknown(t *testing.T) {
	_, nodes, mt := startBatchRing(t, 1, 0)
	resp, err := mt.Call(nodes[0].Addr(), Message{Op: opUnassigned})
	if err != nil || resp.Err != "unknown operation" {
		t.Fatalf("dispatch of op %d: %+v, %v; want the unknown-operation error", opUnassigned, resp, err)
	}
}

// TestRichPayloadsOverOneConn pipelines entry-bearing messages from
// concurrent callers over a single pooled connection — the codec unit
// tests cover the encoding, this covers it composed with framing,
// pooling and pipelining.
func TestRichPayloadsOverOneConn(t *testing.T) {
	server := NewTCPTransport()
	addr, closer, err := server.Listen("127.0.0.1:0", func(req Message) Message {
		return Message{Op: req.Op, Ok: true, Addr: req.Addr, Entries: req.Entries}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer closer.Close()
	client := NewTCPTransport()
	client.MaxConnsPerPeer = 1
	defer client.CloseConnections()
	want := codecMessages()[5].Entries
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tag := fmt.Sprintf("w%d-c%d", w, i)
				resp, err := client.Call(addr, Message{Op: OpGet, Addr: tag, Entries: want})
				if err != nil {
					t.Errorf("call %s: %v", tag, err)
					return
				}
				if resp.Addr != tag || len(resp.Entries) != len(want) || resp.Entries[0] != want[0] {
					t.Errorf("call %s: payload did not survive: %+v", tag, resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := client.PoolStats(); st.Dials != 1 {
		t.Errorf("dials = %d, want the one pipelined connection", st.Dials)
	}
}
