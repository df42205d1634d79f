package wire

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dhtindex/internal/telemetry"
)

// DefaultMaxMessageSize bounds a single encoded message on the wire
// (8 MiB). A corrupt or hostile peer can otherwise declare a huge
// payload and make the decoder allocate unboundedly.
const DefaultMaxMessageSize = 8 << 20

// DefaultMaxConnsPerPeer bounds the connection pool per peer. One
// connection pipelines arbitrarily many requests; extra connections
// exist only to spread head-of-line blocking under heavy concurrency.
const DefaultMaxConnsPerPeer = 4

// DefaultIdleTimeout reaps pooled connections that carried no frame for
// this long.
const DefaultIdleTimeout = 60 * time.Second

// TCPTransport moves messages over the length-prefixed framed protocol
// (see frame.go). Calls go through a per-peer pool of persistent
// connections: multiple in-flight calls multiplex over one connection by
// request ID, idle connections are reaped, and dead ones are evicted
// back to redial.
type TCPTransport struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds a full request/response exchange (default 5s).
	CallTimeout time.Duration
	// CloseTimeout bounds how long a listener's Close waits for in-flight
	// requests to drain before force-closing stragglers (default 3s).
	CloseTimeout time.Duration
	// MaxMessageSize caps one frame's payload (default
	// DefaultMaxMessageSize). Enforced on the length prefix before any
	// allocation.
	MaxMessageSize int64
	// MaxConnsPerPeer bounds the pool per peer address (default
	// DefaultMaxConnsPerPeer).
	MaxConnsPerPeer int
	// IdleTimeout reaps pooled connections with no traffic (default
	// DefaultIdleTimeout). Server connections idle out on the same knob.
	IdleTimeout time.Duration

	poolOnce sync.Once
	connPool *connPool

	metricsOnce sync.Once
	// Pool lifecycle counters (nil until first use; ensureMetrics).
	poolDials        *telemetry.Counter
	poolReuses       *telemetry.Counter
	poolEvictions    *telemetry.Counter
	poolIdleReaps    *telemetry.Counter
	respEncodeErrors *telemetry.Counter
	poolInFlight     *telemetry.Gauge

	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

// NewTCPTransport returns a pooled transport with default timeouts.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{
		DialTimeout:  2 * time.Second,
		CallTimeout:  5 * time.Second,
		CloseTimeout: 3 * time.Second,
	}
}

// PoolStats is a point-in-time snapshot of the transport's connection
// pool and wire traffic. The counters behind it are atomic; snapshots
// taken while the transport serves traffic are race-free.
type PoolStats struct {
	// Dials counts fresh connections established.
	Dials int64
	// Reuses counts Calls served by an already-pooled connection.
	Reuses int64
	// Evictions counts connections torn down on error or call timeout.
	Evictions int64
	// IdleReaps counts connections reaped after IdleTimeout of silence.
	IdleReaps int64
	// InFlight is the number of Calls currently awaiting a response.
	InFlight int64
	// Conns is the number of currently pooled connections.
	Conns int
	// BytesSent / BytesReceived count wire bytes including frame
	// headers, across client and server-side traffic of this transport
	// instance.
	BytesSent     int64
	BytesReceived int64
}

// PoolStats returns a snapshot of the pool counters.
func (t *TCPTransport) PoolStats() PoolStats {
	t.ensureMetrics()
	return PoolStats{
		Dials:         t.poolDials.Value(),
		Reuses:        t.poolReuses.Value(),
		Evictions:     t.poolEvictions.Value(),
		IdleReaps:     t.poolIdleReaps.Value(),
		InFlight:      int64(t.poolInFlight.Value()),
		Conns:         len(t.pool().snapshot()),
		BytesSent:     t.bytesOut.Load(),
		BytesReceived: t.bytesIn.Load(),
	}
}

// Instrument attaches the transport's pool counters and gauges to reg.
func (t *TCPTransport) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t.ensureMetrics()
	reg.Attach(t.poolDials, t.poolReuses, t.poolEvictions, t.poolIdleReaps,
		t.respEncodeErrors, t.poolInFlight)
	reg.GaugeFunc("wire_pool_conns",
		"Currently pooled persistent connections.",
		func() float64 { return float64(len(t.pool().snapshot())) })
}

// ensureMetrics lazily creates the counters so zero-value struct
// literals (tests) work without a constructor.
func (t *TCPTransport) ensureMetrics() {
	t.metricsOnce.Do(func() {
		t.poolDials = telemetry.NewCounter("wire_pool_dials_total",
			"Fresh TCP connections established by the pool.")
		t.poolReuses = telemetry.NewCounter("wire_pool_reuses_total",
			"Calls served over an already-pooled connection.")
		t.poolEvictions = telemetry.NewCounter("wire_pool_evictions_total",
			"Pooled connections torn down on error or call timeout.")
		t.poolIdleReaps = telemetry.NewCounter("wire_pool_idle_reaps_total",
			"Pooled connections reaped after the idle timeout.")
		t.respEncodeErrors = telemetry.NewCounter("wire_resp_encode_errors_total",
			"Server responses that failed to encode or send; the connection is closed so the client fails fast.")
		t.poolInFlight = telemetry.NewGauge("wire_pool_in_flight",
			"Calls currently awaiting a response over pooled connections.")
	})
}

// pool lazily creates the client connection pool.
func (t *TCPTransport) pool() *connPool {
	t.ensureMetrics()
	t.poolOnce.Do(func() { t.connPool = newConnPool(t) })
	return t.connPool
}

// Listen implements Transport: it binds a TCP listener (use "127.0.0.1:0"
// to pick a free port) and serves framed requests until closed.
func (t *TCPTransport) Listen(addr string, handler Handler) (string, io.Closer, error) {
	t.ensureMetrics()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	srv := &tcpServer{
		t:            t,
		ln:           ln,
		handler:      handler,
		callTimeout:  t.callTimeout(),
		closeTimeout: t.closeTimeout(),
		idleTimeout:  t.poolIdleTimeout(),
		maxMsg:       t.maxMessageSize(),
		conns:        make(map[net.Conn]struct{}),
		workers:      newWorkers(),
	}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return ln.Addr().String(), srv, nil
}

func (t *TCPTransport) dialTimeout() time.Duration {
	if t.DialTimeout > 0 {
		return t.DialTimeout
	}
	return 2 * time.Second
}

func (t *TCPTransport) callTimeout() time.Duration {
	if t.CallTimeout > 0 {
		return t.CallTimeout
	}
	return 5 * time.Second
}

func (t *TCPTransport) closeTimeout() time.Duration {
	if t.CloseTimeout > 0 {
		return t.CloseTimeout
	}
	return 3 * time.Second
}

func (t *TCPTransport) maxMessageSize() int64 {
	if t.MaxMessageSize > 0 {
		return t.MaxMessageSize
	}
	return DefaultMaxMessageSize
}

func (t *TCPTransport) maxConnsPerPeer() int {
	if t.MaxConnsPerPeer > 0 {
		return t.MaxConnsPerPeer
	}
	return DefaultMaxConnsPerPeer
}

func (t *TCPTransport) poolIdleTimeout() time.Duration {
	if t.IdleTimeout > 0 {
		return t.IdleTimeout
	}
	return DefaultIdleTimeout
}

// Call implements Transport: one request/response exchange over a
// pooled persistent connection. A call timeout evicts the whole
// connection — its response stream can no longer be trusted to be
// prompt — and the retry layer above redials.
func (t *TCPTransport) Call(addr string, req Message) (Message, error) {
	return t.CallCtx(context.Background(), addr, req)
}

// CallCtx is Call with context awareness: a caller whose ctx is
// cancelled or past its deadline stops waiting — in the pool's
// connection-wait queue and in the response wait — instead of holding
// resources until the call timeout. The ctx does not cancel the wire
// exchange itself (an abandoned response is dropped by ID on arrival);
// it only releases this caller.
func (t *TCPTransport) CallCtx(ctx context.Context, addr string, req Message) (Message, error) {
	t.ensureMetrics()
	// Two attempts to absorb the register/teardown race: a pooled conn
	// can break between the pool handing it out and the caller
	// registering on it.
	for attempt := 0; ; attempt++ {
		pc, err := t.pool().get(ctx, addr)
		if err != nil {
			if ctx.Err() != nil {
				return Message{}, ctx.Err()
			}
			return Message{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
		}
		w := waiterPool.Get().(*waiter)
		id, ok := pc.register(w)
		if !ok {
			waiterPool.Put(w)
			if attempt == 0 {
				continue
			}
			return Message{}, fmt.Errorf("%w: %s: pooled conn closed", ErrUnreachable, addr)
		}
		return t.exchange(ctx, pc, id, w, addr, &req)
	}
}

// exchange writes one registered request and waits for its response.
func (t *TCPTransport) exchange(ctx context.Context, pc *persistConn, id uint64, w *waiter, addr string, req *Message) (Message, error) {
	t.poolInFlight.Add(1)
	defer t.poolInFlight.Add(-1)
	if err := pc.c.writeFrame(id, req, t.callTimeout()); err != nil {
		pc.release(id, w)
		// A partial frame may be on the wire; nothing on this conn can be
		// trusted anymore.
		pc.teardown(fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err), false)
		return Message{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	r, err := w.await(ctx, t.callTimeout())
	if err == nil {
		waiterPool.Put(w)
		return r.msg, r.err
	}
	// The caller gave up or timed out. A ctx leaves the connection
	// healthy — the reader drops the late response by ID — but a timeout
	// evicts it.
	pc.release(id, w)
	if err == errCallTimeout {
		err = fmt.Errorf("%w: %s: call timeout after %v", ErrUnreachable, addr, t.callTimeout())
		pc.teardown(err, false)
	}
	return Message{}, err
}

// CloseConnections tears down every pooled client connection. Pending
// calls on them error out with ErrUnreachable; subsequent Calls redial.
// Use it when shutting a process down or when a test needs a clean
// pool.
func (t *TCPTransport) CloseConnections() {
	for _, pc := range t.pool().snapshot() {
		pc.teardown(fmt.Errorf("%w: %s: pool closed", ErrUnreachable, pc.addr), pc.inflight.Load() == 0)
	}
}

// tcpServer serves framed requests on persistent connections. Each
// connection has a frame-reader loop; every request frame is handed to
// one of the server's workers (a warm goroutine, DESIGN.md §30) so
// responses complete (and are written back) in any order — that is what
// lets clients pipeline. Deadlines are
// per-request: the read deadline is reset before every frame and each
// response write carries its own write deadline, so a long-lived
// connection never inherits a stale deadline from accept time.
type tcpServer struct {
	t            *TCPTransport
	ln           net.Listener
	handler      Handler
	callTimeout  time.Duration
	closeTimeout time.Duration
	idleTimeout  time.Duration
	maxMsg       int64
	workers      *workers

	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	// closing is set under mu, and read without it by a frame loop each
	// time it re-arms its read deadline.
	closing   atomic.Bool
	closeOnce sync.Once
}

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serverConn is one accepted connection's serving state: its codec, the
// requests its workers are still answering, and the records of answered
// ones, kept for the next frames.
type serverConn struct {
	s        *tcpServer
	conn     net.Conn
	c        *codec
	inflight sync.WaitGroup

	mu   sync.Mutex
	free []*serverReq
}

// serverReq is one request frame on its way to a worker. A record is
// reused from request to request and its serve task is bound once, so a
// hand-off allocates nothing and the decoded request stays in the record
// (DESIGN.md §36).
type serverReq struct {
	sc    *serverConn
	id    uint64
	req   Message
	serve func()
}

// record takes an answered request's record, or makes one.
func (sc *serverConn) record() *serverReq {
	sc.mu.Lock()
	if n := len(sc.free); n > 0 {
		r := sc.free[n-1]
		sc.free = sc.free[:n-1]
		sc.mu.Unlock()
		return r
	}
	sc.mu.Unlock()
	r := &serverReq{sc: sc}
	r.serve = r.run
	return r
}

// run answers the request and gives the record back.
func (r *serverReq) run() {
	sc := r.sc
	resp := sc.s.handler(r.req)
	if err := sc.c.writeFrame(r.id, &resp, sc.s.callTimeout); err != nil {
		// A response that cannot be delivered must not be silently
		// swallowed: count it and close the connection so the client
		// fails fast instead of timing out.
		sc.s.t.respEncodeErrors.Inc()
		_ = sc.conn.Close()
	}
	r.req = Message{}
	sc.mu.Lock()
	sc.free = append(sc.free, r)
	sc.mu.Unlock()
	sc.inflight.Done()
}

func (s *tcpServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sc := &serverConn{s: s, conn: conn, c: newCodec(conn, s.maxMsg, &s.t.bytesIn, &s.t.bytesOut)}
	defer sc.inflight.Wait()
	for {
		// Per-request read deadline: a persistent connection may idle
		// between frames for as long as the pool's idle timeout allows.
		// Close nudges the reader with a deadline of now after setting
		// closing; re-checking closing after arming makes sure a re-arm
		// cannot undo the nudge.
		if err := conn.SetReadDeadline(time.Now().Add(s.idleTimeout + time.Second)); err != nil {
			return
		}
		if s.closing.Load() {
			return
		}
		r := sc.record()
		id, err := sc.c.readFrame(&r.req)
		if err != nil {
			return // client went away, idled out, or sent garbage
		}
		r.id = id
		sc.inflight.Add(1)
		s.workers.run(r.serve)
	}
}

// Close implements io.Closer: stops accepting, nudges connection
// readers off their blocking reads (in-flight handlers still write
// their responses), and waits up to closeTimeout for the readers, their
// handlers and then the server's workers to exit before force-closing
// stragglers. A node shutting down must not hang behind a peer that
// dribbles bytes.
func (s *tcpServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		err = s.ln.Close()
		s.mu.Lock()
		s.closing.Store(true)
		for conn := range s.conns {
			_ = conn.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		drained := make(chan struct{})
		go func() {
			s.wg.Wait() // each reader waits for its in-flight handlers
			s.workers.stop()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(s.closeTimeout):
			s.mu.Lock()
			for conn := range s.conns {
				_ = conn.Close()
			}
			s.mu.Unlock()
		}
	})
	return err
}
