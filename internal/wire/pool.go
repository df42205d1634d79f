package wire

// The client half of the persistent-connection fast path: a bounded
// per-peer pool of framed connections. Multiple in-flight Calls
// multiplex over one connection by request ID (pipelining), idle
// connections are reaped by a read-deadline timer, and any protocol or
// transport error evicts the connection back to redial — the retry /
// breaker layers above see every such failure as ErrUnreachable.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// poolResult is one response (or terminal error) delivered to a waiting
// caller.
type poolResult struct {
	msg Message
	err error
}

// errCallTimeout is what await reports when a call outlives its timeout.
var errCallTimeout = errors.New("wire: call timeout")

// waiter is one call's response slot and call-timeout timer. Waiters are
// reused from call to call (DESIGN.md §36), so a round trip allocates
// neither. A waiter goes back to waiterPool only when nothing can still
// send into it: its response was received, unregister took it out of
// pending, or release received the one send deliver or teardown is
// committed to.
type waiter struct {
	ch    chan poolResult // buffered: deliver and teardown never block
	timer *time.Timer     // stopped between calls, its channel empty
}

var waiterPool = sync.Pool{New: func() any {
	return &waiter{ch: make(chan poolResult, 1), timer: stoppedTimer()}
}}

// stoppedTimer returns a timer that is not running.
func stoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// await waits for w's response until ctx is done or d has passed, and
// then reports ctx.Err() or errCallTimeout.
func (w *waiter) await(ctx context.Context, d time.Duration) (poolResult, error) {
	w.timer.Reset(d)
	select {
	case r := <-w.ch:
		w.disarm()
		return r, nil
	case <-ctx.Done():
		w.disarm()
		return poolResult{}, ctx.Err()
	case <-w.timer.C:
		return poolResult{}, errCallTimeout
	}
}

// disarm stops w's timer for the next call. A timer Stop finds already
// fired is replaced, not drained: go.mod's go 1.22 keeps asynchronous
// timer channels, whose tick can still land after Stop returns, and a
// later call must not take it for its own timeout. (Under synchronous
// channels Stop discards a pending tick, and a blocking drain after a
// failed Stop would hang.)
func (w *waiter) disarm() {
	if !w.timer.Stop() {
		w.timer = stoppedTimer()
	}
}

// persistConn is one pooled client connection. The pending map is the
// multiplexing heart: callers register a request ID before writing their
// frame, and the single reader goroutine routes each response frame to
// the waiter registered under its ID. A response whose ID is no longer
// registered (the caller timed out and left) is dropped on the floor —
// it can never be delivered to a different caller, because IDs are
// never reused within a connection.
type persistConn struct {
	t    *TCPTransport
	addr string
	conn net.Conn
	c    *codec

	// inflight mirrors len(pending) without taking mu, so the pool's
	// least-loaded scan and the reaper's idle check stay lock-cheap.
	inflight atomic.Int64

	mu      sync.Mutex
	pending map[uint64]*waiter
	nextID  uint64
	broken  bool
}

// register allocates a fresh request ID and registers w under it. It
// fails when the connection broke between pool lookup and registration;
// the caller then grabs another connection.
func (p *persistConn) register(w *waiter) (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken {
		return 0, false
	}
	p.nextID++
	id := p.nextID
	p.pending[id] = w
	p.inflight.Add(1)
	return id, true
}

// unregister abandons a request (caller timeout or write failure) and
// reports whether it was still pending. The reader may still receive the
// late response; it finds no waiter and drops it.
func (p *persistConn) unregister(id uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.pending[id]; !ok {
		return false
	}
	delete(p.pending, id)
	p.inflight.Add(-1)
	return true
}

// release abandons a request whose caller is leaving early and returns
// its waiter to waiterPool. When the request was no longer pending,
// deliver or teardown took it and is committed to one send into w, which
// release receives first: a later call must not find it.
func (p *persistConn) release(id uint64, w *waiter) {
	if !p.unregister(id) {
		<-w.ch
	}
	waiterPool.Put(w)
}

// deliver routes one response frame to its registered caller.
func (p *persistConn) deliver(id uint64, msg *Message) {
	p.mu.Lock()
	w := p.pending[id]
	if w != nil {
		delete(p.pending, id)
		p.inflight.Add(-1)
	}
	p.mu.Unlock()
	if w != nil {
		w.ch <- poolResult{msg: *msg}
	}
}

// teardown evicts the connection: removes it from the pool, closes the
// socket, and errors out every pending caller. Safe to call from the
// reader, a writer, and a timed-out caller concurrently — only the
// first wins, and only the first bumps the eviction (or idle-reap)
// counter.
func (p *persistConn) teardown(err error, idle bool) {
	p.mu.Lock()
	if p.broken {
		p.mu.Unlock()
		return
	}
	p.broken = true
	pending := p.pending
	p.pending = nil
	p.inflight.Store(0)
	p.mu.Unlock()

	p.t.pool().remove(p)
	_ = p.conn.Close()
	for _, w := range pending {
		w.ch <- poolResult{err: err}
	}
	if idle {
		p.t.poolIdleReaps.Inc()
	} else {
		p.t.poolEvictions.Inc()
	}
}

// readLoop is the connection's single reader: it dispatches response
// frames by request ID until the connection dies or idles out. The read
// deadline doubles as the idle reaper — when nothing is in flight an
// expired deadline means the connection earned no keep; with requests
// pending the callers' own timers bound the wait, so the loop's
// deadline only has to be generous enough not to fire under them.
func (p *persistConn) readLoop() {
	idleTimeout := p.t.poolIdleTimeout()
	busyTimeout := p.t.callTimeout() + time.Second
	var msg Message
	for {
		wasIdle := p.inflight.Load() == 0
		d := busyTimeout
		if wasIdle {
			d = idleTimeout
		}
		_ = p.conn.SetReadDeadline(time.Now().Add(d))
		id, err := p.c.readFrame(&msg)
		if err != nil {
			if isTimeoutErr(err) && p.inflight.Load() == 0 {
				p.teardown(fmt.Errorf("%w: %s: pooled conn idle-reaped", ErrUnreachable, p.addr), true)
			} else {
				p.teardown(fmt.Errorf("%w: %s: %v", ErrUnreachable, p.addr, err), false)
			}
			return
		}
		p.deliver(id, &msg)
	}
}

// connPool tracks the persistent connections per peer address and
// enforces the per-peer bound.
type connPool struct {
	t *TCPTransport

	mu   sync.Mutex
	cond *sync.Cond // signals a dial landing or a conn leaving the pool
	// peers holds the established connections; dialing counts dials in
	// progress against the bound.
	peers   map[string][]*persistConn
	dialing map[string]int
}

func newConnPool(t *TCPTransport) *connPool {
	p := &connPool{
		t:       t,
		peers:   make(map[string][]*persistConn),
		dialing: make(map[string]int),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// get returns a connection to addr: the least-loaded live one when the
// pool is at its bound or an idle conn exists, otherwise a fresh dial.
// Under concurrency the pool therefore grows up to MaxConnsPerPeer
// connections per peer and pipelines the overflow onto existing ones; a
// caller that finds every slot taken by a dial in progress waits for one
// to land rather than dialing past the bound. The wait honours ctx: a
// caller whose deadline expires (or that was shed upstream and cancelled)
// leaves the queue immediately instead of holding a would-be slot.
func (p *connPool) get(ctx context.Context, addr string) (*persistConn, error) {
	// Wake this waiter when ctx fires. cond.Wait cannot select on a
	// channel, so the cancel hook broadcasts and the loop re-checks
	// ctx.Err() on every wakeup.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
		defer stop()
	}
	p.mu.Lock()
	for {
		if err := ctx.Err(); err != nil {
			p.mu.Unlock()
			return nil, err
		}
		conns := p.peers[addr]
		var best *persistConn
		for _, pc := range conns {
			if best == nil || pc.inflight.Load() < best.inflight.Load() {
				best = pc
			}
		}
		atBound := len(conns)+p.dialing[addr] >= p.t.maxConnsPerPeer()
		if best != nil && (best.inflight.Load() == 0 || atBound) {
			p.mu.Unlock()
			p.t.poolReuses.Inc()
			return best, nil
		}
		if !atBound {
			break
		}
		// No established conn and every slot is a dial in progress: wait
		// for one to land (or fail) instead of exceeding the bound.
		p.cond.Wait()
	}
	p.dialing[addr]++
	p.mu.Unlock()

	conn, err := net.DialTimeout("tcp", addr, p.t.dialTimeout())

	p.mu.Lock()
	p.dialing[addr]--
	if p.dialing[addr] == 0 {
		delete(p.dialing, addr)
	}
	if err != nil {
		p.cond.Broadcast()
		p.mu.Unlock()
		return nil, err
	}
	pc := &persistConn{
		t:       p.t,
		addr:    addr,
		conn:    conn,
		c:       newCodec(conn, p.t.maxMessageSize(), &p.t.bytesIn, &p.t.bytesOut),
		pending: make(map[uint64]*waiter),
	}
	p.peers[addr] = append(p.peers[addr], pc)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.t.poolDials.Inc()
	go pc.readLoop()
	return pc, nil
}

// remove detaches a connection from the pool (teardown's pool half).
func (p *connPool) remove(pc *persistConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.peers[pc.addr]
	for i, c := range conns {
		if c == pc {
			p.peers[pc.addr] = append(conns[:i], conns[i+1:]...)
			break
		}
	}
	if len(p.peers[pc.addr]) == 0 {
		delete(p.peers, pc.addr)
	}
	p.cond.Broadcast()
}

// snapshot returns every pooled connection (for shutdown and stats).
func (p *connPool) snapshot() []*persistConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	var all []*persistConn
	for _, conns := range p.peers {
		all = append(all, conns...)
	}
	return all
}
