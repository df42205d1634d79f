package main

import (
	"context"
	"io"
	"sync/atomic"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

// The decorators below wrap the program's public seams — overlay.Network,
// wire.Transport (and the wire.Handler given to Listen) and
// wire.ConcurrentStore — and record one span per call. They exist only in
// traced passes; end-to-end windows run on the bare objects.

// tracedNetwork sits between index.Service and wire.Cluster.
type tracedNetwork struct {
	inner *wire.Cluster
	tr    *tracer
	// userBytes sums the key and payload bytes of every entry put, the
	// denominator of wire.durable.wal_bytes_per_user_byte.
	userBytes atomic.Int64
}

var (
	_ overlay.Network        = (*tracedNetwork)(nil)
	_ overlay.BatchNetwork   = (*tracedNetwork)(nil)
	_ overlay.ContextNetwork = (*tracedNetwork)(nil)
)

// do records one wire.cluster span around fn. fn returns the span's count.
func (n *tracedNetwork) do(ctx context.Context, name opName, fn func(ctx context.Context) int) {
	id := n.tr.newID()
	parent := spanFrom(ctx)
	if parent == 0 {
		parent = n.tr.curRoot.Load()
	}
	start := n.tr.now()
	count := fn(withSpan(ctx, id))
	n.tr.add(span{id: id, parent: parent, layer: layerCluster, name: name, start: start, end: n.tr.now(), n: int32(count)})
}

func entryBytes(e overlay.Entry) int64 { return int64(keyspace.Size + len(e.Kind) + len(e.Value)) }

func (n *tracedNetwork) Put(key keyspace.Key, e overlay.Entry) (route overlay.Route, err error) {
	n.userBytes.Add(entryBytes(e))
	n.do(context.Background(), opPut, func(ctx context.Context) int {
		route, err = n.inner.PutCtx(ctx, key, e)
		return route.Hops
	})
	return route, err
}

func (n *tracedNetwork) Get(key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	return n.GetCtx(context.Background(), key)
}

func (n *tracedNetwork) GetCtx(ctx context.Context, key keyspace.Key) (entries []overlay.Entry, route overlay.Route, err error) {
	n.do(ctx, opGet, func(ctx context.Context) int {
		entries, route, err = n.inner.GetCtx(ctx, key)
		return route.Hops
	})
	return entries, route, err
}

func (n *tracedNetwork) Remove(key keyspace.Key, e overlay.Entry) (ok bool, err error) {
	n.do(context.Background(), opRemove, func(context.Context) int {
		ok, err = n.inner.Remove(key, e)
		return 0
	})
	return ok, err
}

func (n *tracedNetwork) PutBatch(ctx context.Context, items []overlay.KeyEntry) (err error) {
	for _, it := range items {
		n.userBytes.Add(entryBytes(it.Entry))
	}
	n.do(ctx, opPutBatch, func(ctx context.Context) int {
		err = n.inner.PutBatch(ctx, items)
		return len(items)
	})
	return err
}

func (n *tracedNetwork) RemoveBatch(ctx context.Context, items []overlay.KeyEntry) (removed int, err error) {
	n.do(ctx, opRemoveBatch, func(ctx context.Context) int {
		removed, err = n.inner.RemoveBatch(ctx, items)
		return len(items)
	})
	return removed, err
}

func (n *tracedNetwork) Addrs() []string { return n.inner.Addrs() }
func (n *tracedNetwork) Size() int       { return n.inner.Size() }
func (n *tracedNetwork) StatsOf(addr string) (overlay.NodeStats, error) {
	return n.inner.StatsOf(addr)
}

// ctxCaller is the deadline-aware call the retry layer looks for in the
// transport it wraps; the decorator offers it so a caller's context — and
// the span it carries — reaches the wire.transport seam.
type ctxCaller interface {
	CallCtx(ctx context.Context, addr string, req wire.Message) (wire.Message, error)
}

// tracedTransport wraps one transport instance: the client's, or one
// node's. Calls become wire.transport spans; the handler a node registers
// becomes wire.handler spans, which therefore include the node's
// admission wait. A node's address is known only once Listen returns,
// when it is registered with the tracer so that calls to it resolve to
// the node's number.
type tracedTransport struct {
	inner wire.Transport
	tr    *tracer
	node  nodeID // 0 for the client's transport
}

func (t *tracedTransport) Listen(addr string, handler wire.Handler) (string, io.Closer, error) {
	actual, closer, err := t.inner.Listen(addr, func(req wire.Message) wire.Message {
		start := t.tr.now()
		resp := handler(req)
		t.tr.add(span{
			id: t.tr.newID(), layer: layerHandler, name: opHandle, op: req.Op,
			node: t.node, start: start, end: t.tr.now(),
		})
		return resp
	})
	if err == nil {
		t.tr.register(actual, t.node)
	}
	return actual, closer, err
}

func (t *tracedTransport) Call(addr string, req wire.Message) (wire.Message, error) {
	return t.CallCtx(context.Background(), addr, req)
}

func (t *tracedTransport) CallCtx(ctx context.Context, addr string, req wire.Message) (resp wire.Message, err error) {
	start := t.tr.now()
	if cc, ok := t.inner.(ctxCaller); ok {
		resp, err = cc.CallCtx(ctx, addr, req)
	} else if err = ctx.Err(); err == nil {
		resp, err = t.inner.Call(addr, req)
	}
	t.tr.add(span{
		id: t.tr.newID(), parent: spanFrom(ctx), layer: layerTransport, name: opCall, op: req.Op,
		node: t.node, peer: t.tr.idOf(addr), start: start, end: t.tr.now(),
	})
	return resp, err
}

// tracedStore wraps a node's synchronized store. Direct calls are timed
// whole (stripe lock wait included); inside Update the operations on the
// unsynchronized store are timed one by one.
type tracedStore struct {
	wire.ConcurrentStore
	tr   *tracer
	node nodeID
}

func (s *tracedStore) record(name opName, start int64, n int) {
	s.tr.add(span{
		id: s.tr.newID(), layer: layerStore, name: name,
		node: s.node, start: start, end: s.tr.now(), n: int32(n),
	})
}

func (s *tracedStore) Get(key keyspace.Key) []overlay.Entry {
	start := s.tr.now()
	entries := s.ConcurrentStore.Get(key)
	s.record(opGet, start, len(entries))
	return entries
}

func (s *tracedStore) Put(key keyspace.Key, e overlay.Entry) (bool, error) {
	start := s.tr.now()
	added, err := s.ConcurrentStore.Put(key, e)
	s.record(opPut, start, 1)
	return added, err
}

func (s *tracedStore) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	start := s.tr.now()
	removed, err := s.ConcurrentStore.Remove(key, e)
	s.record(opRemove, start, 1)
	return removed, err
}

func (s *tracedStore) Update(key keyspace.Key, fn func(wire.Store) error) error {
	return s.ConcurrentStore.Update(key, func(u wire.Store) error {
		return fn(&tracedStripe{Store: u, outer: s})
	})
}

// tracedStripe is the unsynchronized store an Update section works on.
type tracedStripe struct {
	wire.Store
	outer *tracedStore
}

func (s *tracedStripe) Put(key keyspace.Key, e overlay.Entry) (bool, error) {
	start := s.outer.tr.now()
	added, err := s.Store.Put(key, e)
	s.outer.record(opPut, start, 1)
	return added, err
}

func (s *tracedStripe) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	start := s.outer.tr.now()
	removed, err := s.Store.Remove(key, e)
	s.outer.record(opRemove, start, 1)
	return removed, err
}
