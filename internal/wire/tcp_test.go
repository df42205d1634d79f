package wire

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// TestTCPRingEndToEnd boots a real TCP ring on loopback and exercises the
// full protocol: join, converge, put/get, graceful leave.
func TestTCPRingEndToEnd(t *testing.T) {
	transport := NewTCPTransport()
	cluster := NewCluster(transport, 1, 0)
	const count = 5
	nodes := make([]*Node, 0, count)
	var bootstrap string
	for i := 0; i < count; i++ {
		n, err := Start(Config{Transport: transport, Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		t.Cleanup(n.Stop)
		if !strings.HasPrefix(n.Addr(), "127.0.0.1:") {
			t.Fatalf("unexpected bound addr %s", n.Addr())
		}
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		cluster.Track(n.Addr())
		nodes = append(nodes, n)
	}
	if err := cluster.WaitConverged(15 * time.Second); err != nil {
		logRingState(t, nodes, nil)
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key := keyspace.NewKey(fmt.Sprintf("tcp-doc-%d", i))
		if _, err := cluster.Put(key, overlay.Entry{Kind: "data", Value: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		key := keyspace.NewKey(fmt.Sprintf("tcp-doc-%d", i))
		entries, _, err := cluster.Get(key)
		if err != nil || len(entries) != 1 {
			t.Fatalf("doc %d: %v %v", i, entries, err)
		}
	}
	// One node leaves gracefully; data survives.
	if err := nodes[2].Leave(); err != nil {
		t.Fatal(err)
	}
	cluster.Untrack(nodes[2].Addr())
	if err := cluster.WaitConverged(15 * time.Second); err != nil {
		logRingState(t, nodes, []string{nodes[2].Addr()})
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key := keyspace.NewKey(fmt.Sprintf("tcp-doc-%d", i))
		deadline := time.Now().Add(10 * time.Second)
		for {
			entries, _, err := cluster.Get(key)
			if err == nil && len(entries) == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("doc %d lost after TCP leave", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestTCPCallErrors(t *testing.T) {
	transport := NewTCPTransport()
	transport.DialTimeout = 200 * time.Millisecond
	if _, err := transport.Call("127.0.0.1:1", Message{Op: OpPing}); err == nil {
		t.Fatal("call to closed port succeeded")
	}
	// Listener close makes the address unreachable.
	addr, closer, err := transport.Listen("127.0.0.1:0", func(m Message) Message {
		return Message{Op: m.Op, Ok: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := transport.Call(addr, Message{Op: OpPing})
	if err != nil || !resp.Ok {
		t.Fatalf("ping: %+v, %v", resp, err)
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.Call(addr, Message{Op: OpPing}); err == nil {
		t.Fatal("closed listener still reachable")
	}
}

// TestTCPMaxMessageSize: a peer declaring an oversized message must be
// cut off by the decode limit instead of ballooning server memory.
func TestTCPMaxMessageSize(t *testing.T) {
	server := NewTCPTransport()
	server.MaxMessageSize = 1 << 10
	handled := false
	addr, closer, err := server.Listen("127.0.0.1:0", func(m Message) Message {
		handled = true
		return Message{Op: m.Op, Ok: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	client := NewTCPTransport()
	client.CallTimeout = 2 * time.Second
	big := Message{Op: OpPut, Entry: overlay.Entry{Kind: "d", Value: strings.Repeat("x", 1<<20)}}
	if _, err := client.Call(addr, big); err == nil {
		t.Fatal("oversized message accepted")
	}
	if handled {
		t.Fatal("handler ran on a message past the size cap")
	}
	// Normal-sized traffic still flows.
	resp, err := client.Call(addr, Message{Op: OpPing})
	if err != nil || !resp.Ok {
		t.Fatalf("small message after oversized one: %+v, %v", resp, err)
	}
}

// TestTCPCloseBounded: Close must not hang behind a connection that
// dialed in and dribbles nothing — it drains with a deadline.
func TestTCPCloseBounded(t *testing.T) {
	transport := NewTCPTransport()
	transport.CallTimeout = 30 * time.Second // conn deadline far away
	transport.CloseTimeout = 200 * time.Millisecond
	addr, closer, err := transport.Listen("127.0.0.1:0", func(m Message) Message {
		return Message{Ok: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	// A client that connects and then stalls, holding serveConn open.
	stall, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	time.Sleep(50 * time.Millisecond) // let the server accept it

	start := time.Now()
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v despite a 200ms drain deadline", elapsed)
	}
}

// TestTCPCloseUnderLoad: Close nudges every connection's reader off its
// blocking read, and a reader between two frames must not re-arm its
// read deadline past the nudge. Under a steady Ping load Close returns
// well inside its CloseTimeout, in every trial.
func TestTCPCloseUnderLoad(t *testing.T) {
	const (
		trials       = 50
		closeTimeout = 2 * time.Second
		callers      = 4
	)
	for trial := range trials {
		server := NewTCPTransport()
		server.CloseTimeout = closeTimeout
		addr, closer, err := server.Listen("127.0.0.1:0", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		client := NewTCPTransport()
		var served atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := client.Call(addr, Message{Op: OpPing}); err == nil {
						served.Add(1)
					}
				}
			}()
		}
		waitFor(t, 5*time.Second, "pings served", func() bool { return served.Load() >= 20 })
		start := time.Now()
		_ = closer.Close()
		elapsed := time.Since(start)
		close(stop)
		wg.Wait()
		client.CloseConnections()
		if elapsed > closeTimeout/4 {
			t.Fatalf("trial %d: Close under load took %v, CloseTimeout %v", trial, elapsed, closeTimeout)
		}
	}
}
