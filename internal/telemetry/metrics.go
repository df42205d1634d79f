// Package telemetry is the unified observability layer of the repo: a
// dependency-free metrics registry (atomic counters, gauges and latency
// histograms with quantile estimation) plus a per-lookup trace recorder
// that follows a query through the full paper pipeline — index lookup,
// (q; qᵢ) specialization fan-out, cache shortcut hits, DHT hops and MSD
// resolution.
//
// The paper's whole evaluation (§V, Figs. 7–15) is built from
// per-lookup observables; this package gives every layer one place to
// publish them. Two sinks are provided: a Prometheus-style text
// snapshot (Registry.WriteText, also servable over HTTP) and a JSONL
// stream of structured LookupTrace records (JSONLSink) that the
// simulation reports consume.
//
// Every instrument is safe for concurrent use and nil-safe: calling
// Observe/Inc/Add on a nil instrument is a no-op, so instrumentation
// can stay unconditional in hot paths while telemetry remains optional.
// The full metric catalog lives in docs/OBSERVABILITY.md.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric series
// (e.g. {scheme="simple"}).
type Label struct {
	// Key is the label name.
	Key string
	// Value is the label value.
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Desc identifies a metric series: a name, a help string and an
// optional set of constant labels (kept sorted by key).
type Desc struct {
	// Name is the Prometheus-style series name (e.g. "dht_lookups_total").
	Name string
	// Help is the one-line description emitted as the # HELP comment.
	Help string
	// Labels are the constant labels of the series, sorted by key.
	Labels []Label
}

// key renders the series identity: name plus sorted labels.
func (d Desc) key() string { return d.Name + d.labelString() }

// labelString renders the {k="v",...} suffix ("" when unlabeled).
func (d Desc) labelString() string {
	if len(d.Labels) == 0 {
		return ""
	}
	parts := make([]string, len(d.Labels))
	for i, l := range d.Labels {
		parts[i] = l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// escapeLabelValue applies the Prometheus text-format escaping rules.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// newDesc builds a Desc with a defensive, sorted copy of the labels.
func newDesc(name, help string, labels []Label) Desc {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return Desc{Name: name, Help: help, Labels: ls}
}

// Metric is the interface every instrument satisfies. Instruments are
// created standalone (NewCounter, NewGauge, NewHistogram) and attached
// to a Registry, or created registry-owned (Registry.Counter, ...).
type Metric interface {
	// Desc returns the series identity.
	Desc() Desc
	// Kind returns the Prometheus metric type: "counter", "gauge" or
	// "histogram".
	Kind() string
	// sample takes a point-in-time reading (unexported: the set of
	// implementations is closed).
	sample() sample
}

// sample is a point-in-time reading used by WriteText. Counters and
// gauges fill value; histograms fill hist.
type sample struct {
	value float64
	hist  *histogramSample
}

// Counter is a monotonically increasing atomic counter. All methods are
// safe for concurrent use and on a nil receiver (no-ops), so callers
// can instrument unconditionally.
type Counter struct {
	desc Desc
	v    atomic.Int64
}

// NewCounter creates a standalone counter; attach it to a Registry with
// Attach, or prefer Registry.Counter for registry-owned series.
func NewCounter(name, help string, labels ...Label) *Counter {
	return &Counter{desc: newDesc(name, help, labels)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Non-positive deltas are ignored — counters only go up.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Desc implements Metric.
func (c *Counter) Desc() Desc { return c.desc }

// Kind implements Metric.
func (c *Counter) Kind() string { return "counter" }

func (c *Counter) sample() sample { return sample{value: float64(c.Value())} }

// Gauge is an atomic float64 value that can go up and down. All methods
// are safe for concurrent use and on a nil receiver (no-ops).
type Gauge struct {
	desc Desc
	bits atomic.Uint64
}

// NewGauge creates a standalone gauge; attach it to a Registry with
// Attach, or prefer Registry.Gauge for registry-owned series.
func NewGauge(name, help string, labels ...Label) *Gauge {
	return &Gauge{desc: newDesc(name, help, labels)}
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta to the current value.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Desc implements Metric.
func (g *Gauge) Desc() Desc { return g.desc }

// Kind implements Metric.
func (g *Gauge) Kind() string { return "gauge" }

func (g *Gauge) sample() sample { return sample{value: g.Value()} }

// funcMetric is a read-only series whose value is computed at snapshot
// time — the collector pattern, used to export pre-existing mutex-guarded
// stats (e.g. wire.FaultStats, an ingest queue's depth) without restructuring
// them.
type funcMetric struct {
	desc Desc
	kind string
	fn   func() float64
}

// Desc implements Metric.
func (m *funcMetric) Desc() Desc { return m.desc }

// Kind implements Metric.
func (m *funcMetric) Kind() string { return m.kind }

func (m *funcMetric) sample() sample { return sample{value: m.fn()} }
