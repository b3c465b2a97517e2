// Package telemetry is the unified observability layer: a sharded
// metrics registry (counters/gauges/fixed-bucket histograms with
// cache-line-padded per-worker cells and zero-alloc hot-path
// increments), a fixed-capacity control-plane event journal, 1/N-sampled
// flow-setup trace spans, and a live exposition endpoint (Prometheus
// text format, expvar, pprof).
//
// The design splits metrics into two camps, mirroring OVS's
// coverage-counter vs. appctl-query split:
//
//   - push metrics (Counter.Add / Histogram.Observe) where a reader
//     cannot take the owner's lock (datapath workers on their own shard
//     index, the upcall residence histogram): one relaxed atomic add on
//     a private cache line, no allocation, no map lookup;
//   - pull metrics (CounterFunc / GaugeFunc) for values a subsystem
//     already maintains behind its own synchronization (switch counters,
//     classifier mask counts, the upcall subsystem's Stats): the closure
//     is evaluated only at snapshot time, so the hot path is untouched.
//
// Snapshots are point-in-time, name-sorted, and support Delta() so the
// same registry serves both monotonic /metrics exposition and the
// per-interval series the experiment folds consume.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types in a Snapshot.
type Kind uint8

const (
	// KindCounter is a monotonically increasing total.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// padCell is one shard's counter cell, padded out to a cache line so
// adjacent shards never false-share (the tss stat-shard discipline).
type padCell struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotonic total, sharded per worker. Writers pass their
// shard index (worker ID); single-writer callers use shard 0. When fn is
// set the counter is pull-model: Value defers to the closure and the
// cells are unused.
type Counter struct {
	name, help string
	cells      []padCell
	mask       int
	fn         func() uint64
}

// Add increments the counter by n on the caller's shard. Zero-alloc,
// one atomic add on a private cache line.
func (c *Counter) Add(shard int, n uint64) { c.cells[shard&c.mask].n.Add(n) }

// Value sums the shards (or calls the pull closure).
func (c *Counter) Value() uint64 {
	if c.fn != nil {
		return c.fn()
	}
	var total uint64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Name reports the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous level with atomic Set/Add. When fn is set
// the gauge is pull-model and Set/Add are ignored by Value.
type Gauge struct {
	name, help string
	v          atomic.Int64
	fn         func() int64
}

// Set stores the gauge level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge level by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the gauge level (or calls the pull closure).
func (g *Gauge) Value() int64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Load()
}

// histShard is one shard of a histogram: count/sum on a padded line plus
// a per-bound bucket array private to the shard.
type histShard struct {
	count   atomic.Uint64
	sum     atomic.Int64
	_       [48]byte
	buckets []atomic.Uint64
}

// Histogram is a fixed-bucket distribution over int64 observations
// (virtual-second ticks in this repo). Bounds are inclusive upper
// bounds; one implicit +Inf bucket catches the rest.
type Histogram struct {
	name, help string
	bounds     []int64
	shards     []histShard
	mask       int
}

// Observe records one observation on the caller's shard: a linear scan
// over the (few) bounds and three atomic adds, no allocation.
func (h *Histogram) Observe(shard int, v int64) {
	s := &h.shards[shard&h.mask]
	s.count.Add(1)
	s.sum.Add(v)
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	s.buckets[i].Add(1)
}

// metric is one registered name: exactly one of c/g/h is non-nil.
type metric struct {
	c *Counter
	g *Gauge
	h *Histogram
}

func (m metric) name() string {
	switch {
	case m.c != nil:
		return m.c.name
	case m.g != nil:
		return m.g.name
	default:
		return m.h.name
	}
}

// Registry owns the named metrics. Registration is idempotent by name
// (a second request for an existing name returns the existing metric,
// so scenario re-runs behind a live -serve endpoint keep accumulating
// into the same counters); func-backed metrics swap in the newest
// closure instead, so pull collectors always read the current run's
// objects. Kind mismatches panic: they are programmer errors.
type Registry struct {
	shards int // power of two
	mu     sync.Mutex
	byName map[string]metric
	order  []metric
}

// NewRegistry builds a registry whose push metrics carry the given
// number of shards, rounded up to a power of two (shard indexes are
// masked, so any worker ID is safe regardless of the configured count).
func NewRegistry(shards int) *Registry {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Registry{shards: n, byName: make(map[string]metric)}
}

func (r *Registry) lookup(name string, want Kind) (metric, bool) {
	m, ok := r.byName[name]
	if !ok {
		return metric{}, false
	}
	got := KindHistogram
	if m.c != nil {
		got = KindCounter
	} else if m.g != nil {
		got = KindGauge
	}
	if got != want {
		panic("telemetry: metric " + name + " re-registered with a different kind")
	}
	return m, true
}

func (r *Registry) add(m metric) {
	r.byName[m.name()] = m
	r.order = append(r.order, m)
}

// Counter registers (or returns) a sharded push counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, KindCounter); ok {
		return m.c
	}
	c := &Counter{name: name, help: help, cells: make([]padCell, r.shards), mask: r.shards - 1}
	r.add(metric{c: c})
	return c
}

// CounterFunc registers a pull counter whose value is read from fn at
// snapshot time. Re-registering replaces the closure, so each scenario
// run re-points the collector at its live objects.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, KindCounter); ok {
		m.c.fn = fn
		return
	}
	r.add(metric{c: &Counter{name: name, help: help, fn: fn}})
}

// Gauge registers (or returns) a push gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, KindGauge); ok {
		return m.g
	}
	g := &Gauge{name: name, help: help}
	r.add(metric{g: g})
	return g
}

// GaugeFunc registers a pull gauge; re-registering replaces the closure.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, KindGauge); ok {
		m.g.fn = fn
		return
	}
	r.add(metric{g: &Gauge{name: name, help: help, fn: fn}})
}

// Histogram registers (or returns) a sharded fixed-bucket histogram.
// bounds are inclusive upper bounds in ascending order; an implicit
// +Inf bucket is appended.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, KindHistogram); ok {
		return m.h
	}
	h := &Histogram{name: name, help: help, bounds: append([]int64(nil), bounds...), mask: r.shards - 1}
	h.shards = make([]histShard, r.shards)
	for i := range h.shards {
		h.shards[i].buckets = make([]atomic.Uint64, len(bounds)+1)
	}
	r.add(metric{h: h})
	return h
}

// Point is one metric's value inside a Snapshot.
type Point struct {
	Name string
	Help string
	Kind Kind
	// Value carries counter totals and gauge levels.
	Value float64
	// Histogram payload: per-bound counts (one extra for +Inf), total
	// count and sum.
	Bounds  []int64
	Buckets []uint64
	Count   uint64
	Sum     int64
}

// Snapshot is a point-in-time, name-sorted read of every registered
// metric.
type Snapshot struct {
	Points []Point
}

// Snapshot reads every metric. Pull closures run here, never on the
// hot path.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	metrics := append([]metric(nil), r.order...)
	r.mu.Unlock()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name() < metrics[j].name() })
	s := Snapshot{Points: make([]Point, 0, len(metrics))}
	for _, m := range metrics {
		switch {
		case m.c != nil:
			s.Points = append(s.Points, Point{Name: m.c.name, Help: m.c.help, Kind: KindCounter, Value: float64(m.c.Value())})
		case m.g != nil:
			s.Points = append(s.Points, Point{Name: m.g.name, Help: m.g.help, Kind: KindGauge, Value: float64(m.g.Value())})
		case m.h != nil:
			p := Point{Name: m.h.name, Help: m.h.help, Kind: KindHistogram,
				Bounds: m.h.bounds, Buckets: make([]uint64, len(m.h.bounds)+1)}
			for i := range m.h.shards {
				sh := &m.h.shards[i]
				p.Count += sh.count.Load()
				p.Sum += sh.sum.Load()
				for b := range sh.buckets {
					p.Buckets[b] += sh.buckets[b].Load()
				}
			}
			s.Points = append(s.Points, p)
		}
	}
	return s
}

// Get finds a point by name (snapshots are sorted, so binary search).
func (s Snapshot) Get(name string) (Point, bool) {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].Name >= name })
	if i < len(s.Points) && s.Points[i].Name == name {
		return s.Points[i], true
	}
	return Point{}, false
}

// Value reads a counter/gauge by name, 0 when absent.
func (s Snapshot) Value(name string) float64 {
	p, _ := s.Get(name)
	return p.Value
}

// Delta subtracts prev from s: counters and histograms become
// per-interval increments (names missing from prev pass through);
// gauges keep their current level. The result is what the per-second
// experiment series consume.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{Points: make([]Point, 0, len(s.Points))}
	for _, p := range s.Points {
		q, ok := prev.Get(p.Name)
		if ok && q.Kind == p.Kind {
			switch p.Kind {
			case KindCounter:
				p.Value -= q.Value
			case KindHistogram:
				b := make([]uint64, len(p.Buckets))
				for i := range p.Buckets {
					b[i] = p.Buckets[i]
					if i < len(q.Buckets) {
						b[i] -= q.Buckets[i]
					}
				}
				p.Buckets = b
				p.Count -= q.Count
				p.Sum -= q.Sum
			}
		}
		out.Points = append(out.Points, p)
	}
	return out
}
