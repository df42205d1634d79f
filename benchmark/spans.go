package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dhtindex/internal/wire"
)

// layer is one module boundary a request crosses, in call order from the
// client's root operation down to a node's store. The benchmark records
// spans only at these seams — the public interfaces the decorators in
// decorators.go wrap — so xpath and cache time is part of the index
// layer's self time (they are called inside index.Service, with no seam
// in between).
type layer uint8

const (
	layerIndex layer = iota
	layerCluster
	layerTransport
	layerHandler
	layerStore
	numLayers
)

// layerNames are the module names used in metric names.
var layerNames = [numLayers]string{"index", "wire.cluster", "wire.transport", "wire.handler", "wire.store"}

// opName names what a span did within its layer. Handler spans are named
// by their wire.Op instead.
type opName uint8

const (
	opFind opName = iota
	opSearchAll
	opPublish
	opUnpublish
	opGet
	opPut
	opPutBatch
	opRemove
	opRemoveBatch
	opCall
	opHandle
)

var opNames = [...]string{
	"find", "search_all", "publish", "unpublish",
	"get", "put", "put_batch", "remove", "remove_batch", "call", "handle",
}

// span is one timed call into a layer. It holds no pointers, so the
// collector never scans the millions of spans a pass records.
type span struct {
	id     int32
	parent int32 // 0 = none known (ids start at 1)
	root   int32 // resolved by analyze: id of the client operation it belongs to (0 = maintenance)
	n      int32 // layer-specific count: route hops, batch items, entries returned
	start  int64 // ns since the tracer's epoch
	end    int64
	op     wire.Op // transport calls and handlers
	node   nodeID  // the node that ran it (0 = the client)
	peer   nodeID  // transport calls: the destination
	layer  layer
	name   opName
}

func (s *span) dur() int64 { return s.end - s.start }

// label is the span's operation as it appears in metric and span names.
func (s *span) label() string {
	if s.layer == layerHandler {
		return s.op.String()
	}
	return opNames[s.name]
}

// nodeID identifies a ring node within a trace: its boot order, from 1.
// 0 is the client.
type nodeID uint16

// spanChunk is the unit spans are stored in: appending never copies what
// was already recorded, so recording a span never stalls behind a
// slice's growth.
const spanChunk = 1 << 16

// tracer collects spans in memory; nothing is written until the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32
	// curRoot is the client operation in progress. Traced passes run one
	// client, so a seam that receives no context (overlay.Network's
	// Put/Get/Remove) attributes its span to this operation.
	curRoot atomic.Int32

	mu     sync.Mutex
	chunks [][]span

	addrMu sync.RWMutex
	addrs  map[string]nodeID
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), addrs: map[string]nodeID{}} }

func (t *tracer) now() int64   { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() int32 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == spanChunk {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
		last++
	}
	t.chunks[last] = append(t.chunks[last], s)
	t.mu.Unlock()
}

// take returns every span recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, c := range t.chunks {
		all = append(all, c...)
	}
	t.chunks = nil
	return all
}

// register names a node's bound address; idOf resolves it (0 for an
// address no node registered).
func (t *tracer) register(addr string, id nodeID) {
	t.addrMu.Lock()
	t.addrs[addr] = id
	t.addrMu.Unlock()
}

func (t *tracer) idOf(addr string) nodeID {
	t.addrMu.RLock()
	defer t.addrMu.RUnlock()
	return t.addrs[addr]
}

// root runs fn as one client operation: it opens a root span, makes it the
// current operation, and hands fn a context that carries it.
func (t *tracer) root(name opName, fn func(ctx context.Context)) {
	id := t.newID()
	t.curRoot.Store(id)
	start := t.now()
	fn(withSpan(context.Background(), id))
	t.add(span{id: id, layer: layerIndex, name: name, start: start, end: t.now()})
	t.curRoot.Store(0)
}

type spanKey struct{}

func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int32 {
	id, _ := ctx.Value(spanKey{}).(int32)
	return id
}

// traceTree is the resolved span forest of one traced pass.
type traceTree struct {
	spans []span // sorted by start
	kids  [][]int32
}

// maxScan bounds how far back a parent search looks: an enclosing span is
// never more than a few concurrent calls away (SearchAll runs at most 8
// lookups at once).
const maxScan = 128

// enclosing returns the index of the tightest candidate interval that
// encloses s — among the candidates started no later than s, the one that
// ends soonest after it — skipping candidates for which skip returns
// true. cands is in start order.
func enclosing(spans []span, cands []int32, s *span, skip func(c *span, i int32) bool) int32 {
	hi := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].start > s.start })
	best := int32(-1)
	for k := hi - 1; k >= 0 && k >= hi-maxScan; k-- {
		c := &spans[cands[k]]
		if c.end < s.end || c == s || skip(c, cands[k]) {
			continue
		}
		if best < 0 || c.end < spans[best].end {
			best = cands[k]
		}
	}
	return best
}

// causes reports whether a handler serving op can itself issue a call
// with the child op: routing forwards, batch forwards and replication.
func causes(op, child wire.Op) bool {
	switch op {
	case wire.OpFindSuccessor:
		return child == wire.OpFindSuccessor
	case wire.OpPut, wire.OpPutBatch:
		return child == wire.OpFindSuccessor || child == wire.OpPut || child == wire.OpPutBatch || child == wire.OpPutReplica
	case wire.OpRemove, wire.OpRemoveBatch:
		return child == wire.OpFindSuccessor || child == wire.OpRemoveBatch || child == wire.OpRemoveReplica
	}
	return false
}

// touches reports whether a handler serving op performs the named store
// operation.
func touches(op wire.Op, storeOp opName) bool {
	switch op {
	case wire.OpGet:
		return storeOp == opGet
	case wire.OpPut, wire.OpPutBatch, wire.OpPutReplica, wire.OpTransfer:
		return storeOp == opPut
	case wire.OpRemove, wire.OpRemoveBatch, wire.OpRemoveReplica:
		return storeOp == opRemove
	}
	return false
}

// analyze links every span to its parent and its client operation. The
// client side (root → cluster → transport call) is linked exactly, by the
// context the decorators pass down. A context does not cross a handler, so
// the node side is linked by containment: a handler span belongs to the
// tightest enclosing call span to the same address with the same op; a
// call a node makes, and a store operation, belong to the tightest
// enclosing handler span on that node whose op can cause them. Calls and
// store operations of a node's maintenance loops run outside any handler,
// or inside one that cannot cause them, and stay unattributed (root 0).
func analyze(spans []span) *traceTree {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].layer < spans[j].layer
	})
	maxID := int32(0)
	for i := range spans {
		if spans[i].id > maxID {
			maxID = spans[i].id
		}
	}
	tt := &traceTree{spans: spans, kids: make([][]int32, len(spans))}
	at := make([]int32, maxID+1) // span id → index into spans
	type callKey struct {
		peer nodeID
		op   wire.Op
	}
	calls := map[callKey][]int32{}
	handlers := map[nodeID][]int32{}
	var clientCluster []int32
	for i := range spans {
		s := &spans[i]
		at[s.id] = int32(i)
		switch s.layer {
		case layerTransport:
			k := callKey{s.peer, s.op}
			calls[k] = append(calls[k], int32(i))
		case layerHandler:
			handlers[s.node] = append(handlers[s.node], int32(i))
		case layerCluster:
			clientCluster = append(clientCluster, int32(i))
		}
	}
	adopted := make([]bool, len(spans))
	parentIdx := make([]int32, len(spans))
	for i := range spans {
		s := &spans[i]
		p := int32(-1)
		switch {
		case s.parent != 0:
			p = at[s.parent]
		case s.layer == layerHandler:
			p = enclosing(spans, calls[callKey{s.node, s.op}], s, func(_ *span, c int32) bool { return adopted[c] })
			if p >= 0 {
				adopted[p] = true
			}
		case s.layer == layerTransport && s.node == 0:
			// A client call whose seam passed no context (Cluster.Remove).
			p = enclosing(spans, clientCluster, s, func(*span, int32) bool { return false })
		case s.layer == layerTransport:
			p = enclosing(spans, handlers[s.node], s, func(h *span, _ int32) bool { return !causes(h.op, s.op) })
		case s.layer == layerStore:
			p = enclosing(spans, handlers[s.node], s, func(h *span, _ int32) bool { return !touches(h.op, s.name) })
		}
		parentIdx[i] = p
		if p >= 0 {
			s.parent = spans[p].id
			tt.kids[p] = append(tt.kids[p], int32(i))
		}
	}
	// A parent starts no later than its child, so one pass in start order
	// resolves roots — except for equal timestamps, which the second pass
	// settles.
	for pass := 0; pass < 2; pass++ {
		for i := range spans {
			s := &spans[i]
			switch {
			case s.layer == layerIndex:
				s.root = s.id
			case parentIdx[i] >= 0:
				s.root = spans[parentIdx[i]].root
			}
		}
	}
	return tt
}

// self is span i's duration minus the part of it covered by its children
// (children of a parallel fan-out overlap, so their intervals are merged).
func (tt *traceTree) self(i int32) int64 {
	s := &tt.spans[i]
	covered, edge := int64(0), s.start
	for _, k := range tt.kids[i] { // kids are in start order
		c := &tt.spans[k]
		from, to := c.start, c.end
		if from < edge {
			from = edge
		}
		if to > s.end {
			to = s.end
		}
		if to > from {
			covered += to - from
			edge = to
		}
	}
	return s.dur() - covered
}

// countKids counts span i's direct children on the given layer.
func (tt *traceTree) countKids(i int32, l layer) int {
	n := 0
	for _, k := range tt.kids[i] {
		if tt.spans[k].layer == l {
			n++
		}
	}
	return n
}

// spanJSON is the on-disk form of a span (-trace-out). Node and Peer are
// boot-order node numbers; 0 is the client.
type spanJSON struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	OpID   int32  `json:"op_id"`
	Node   nodeID `json:"node"`
	Peer   nodeID `json:"peer,omitempty"`
	Origin string `json:"origin,omitempty"`
}

// writeSpans dumps the resolved spans as one JSON array.
func writeSpans(path string, spans []span) error {
	out := make([]spanJSON, len(spans))
	for i := range spans {
		s := &spans[i]
		j := spanJSON{
			Name: layerNames[s.layer] + "." + s.label(), Start: s.start, End: s.end,
			ID: s.id, Parent: s.parent, OpID: s.root, Node: s.node, Peer: s.peer,
		}
		if s.layer == layerTransport {
			j.Origin = "client"
			if s.node != 0 {
				j.Origin = "node"
			}
		}
		out[i] = j
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
