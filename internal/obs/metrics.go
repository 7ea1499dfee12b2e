package obs

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// MetricKind distinguishes the registered metric types.
type MetricKind uint8

// Metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE terms.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing tally. The nil counter (handed out
// by a nil Registry) is the disabled counter: Inc/Add no-op at zero cost.
type Counter struct{ v uint64 }

// Inc adds one.
//
//lightpc:zeroalloc
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
//
//lightpc:zeroalloc
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value reports the tally.
//
//lightpc:zeroalloc
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a settable instantaneous value. The nil gauge no-ops.
type Gauge struct{ v float64 }

// Set replaces the value.
//
//lightpc:zeroalloc
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add shifts the value by d.
//
//lightpc:zeroalloc
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v += d
}

// Value reports the gauge.
//
//lightpc:zeroalloc
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// DefaultLatencyBuckets spans device hits (tens of ns) through the 16 ms
// ATX hold-up window — the upper bounds of a sim-time histogram.
func DefaultLatencyBuckets() []sim.Duration {
	return []sim.Duration{
		100 * sim.Nanosecond,
		1 * sim.Microsecond,
		10 * sim.Microsecond,
		100 * sim.Microsecond,
		1 * sim.Millisecond,
		4 * sim.Millisecond,
		16 * sim.Millisecond,
		100 * sim.Millisecond,
	}
}

// Histogram is a fixed-bucket sim-time histogram: cumulative bucket counts
// under static upper bounds, plus an exact sum. Unlike sim.Histogram it
// keeps no samples, so Observe is allocation-free. The nil histogram
// no-ops.
type Histogram struct {
	bounds []sim.Duration // ascending upper bounds; +Inf is implicit
	counts []uint64       // per-bound counts (not cumulative)
	inf    uint64         // samples above the last bound
	sum    sim.Duration
	n      uint64
}

// Observe records one sample.
//
//lightpc:zeroalloc
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	h.sum += d
	h.n++
	for i, b := range h.bounds {
		if d <= b {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

// Count reports the total number of samples.
//
//lightpc:zeroalloc
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum reports the total of all samples.
//
//lightpc:zeroalloc
func (h *Histogram) Sum() sim.Duration {
	if h == nil {
		return 0
	}
	return h.sum
}

// Buckets reports (upper bound, cumulative count) pairs in bound order,
// excluding the implicit +Inf bucket (whose cumulative count is Count).
func (h *Histogram) Buckets() ([]sim.Duration, []uint64) {
	if h == nil {
		return nil, nil
	}
	cum := make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return h.bounds, cum
}

// Metric is one registry entry: a name, help text, and exactly one backing
// instrument (direct counter/gauge/histogram, or a sampling func).
type Metric struct {
	Name string
	Help string
	Kind MetricKind

	c  *Counter
	g  *Gauge
	h  *Histogram
	cf func() uint64
	gf func() float64
}

// Value samples the metric's scalar value (counter/gauge only).
func (m *Metric) Value() float64 {
	switch {
	case m.c != nil:
		return float64(m.c.v)
	case m.cf != nil:
		return float64(m.cf())
	case m.g != nil:
		return m.g.v
	case m.gf != nil:
		return m.gf()
	default:
		return 0
	}
}

// Hist exposes the backing histogram (nil for scalar metrics).
func (m *Metric) Hist() *Histogram { return m.h }

// Registry holds named metrics. The nil registry is the disabled registry:
// constructors return nil instruments (which themselves no-op) and
// registration funcs do nothing. Metrics are kept in an insertion-ordered
// slice with a name index — exports sort by name, never by map order.
type Registry struct {
	byName  map[string]int
	metrics []*Metric
}

// NewRegistry returns an enabled registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// add registers m, panicking on a duplicate name (two subsystems fighting
// over one metric is a wiring bug worth failing loudly on).
func (r *Registry) add(m *Metric) {
	if _, ok := r.byName[m.Name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.Name))
	}
	r.byName[m.Name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.add(&Metric{Name: name, Help: help, Kind: KindCounter, c: c})
	return c
}

// Gauge registers and returns a gauge. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.add(&Metric{Name: name, Help: help, Kind: KindGauge, g: g})
	return g
}

// Histogram registers and returns a sim-time histogram over the given
// ascending bucket bounds (nil means DefaultLatencyBuckets). Returns nil
// on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []sim.Duration) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
	r.add(&Metric{Name: name, Help: help, Kind: KindHistogram, h: h})
	return h
}

// CounterFunc registers a counter sampled from fn at export time — the
// bridge from existing stats structs (trace.Stats, psm.Stats, …) into the
// registry without moving their hot-path increments.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.add(&Metric{Name: name, Help: help, Kind: KindCounter, cf: fn})
}

// GaugeFunc registers a gauge sampled from fn at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(&Metric{Name: name, Help: help, Kind: KindGauge, gf: fn})
}

// Len reports the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.metrics)
}

// Lookup returns the metric registered under name, or nil.
func (r *Registry) Lookup(name string) *Metric {
	if r == nil {
		return nil
	}
	if i, ok := r.byName[name]; ok {
		return r.metrics[i]
	}
	return nil
}

// RegisterTraceStats exposes a trace.Stats as registered metrics. Stats
// stays the plain-struct view the hot paths increment; the registry samples
// it at export time, so registration costs the hot paths nothing.
func RegisterTraceStats(r *Registry, prefix string, s *trace.Stats) {
	if r == nil || s == nil {
		return
	}
	r.CounterFunc(prefix+"reads_total", "memory loads issued by the program", func() uint64 { return s.Reads })
	r.CounterFunc(prefix+"writes_total", "memory stores issued by the program", func() uint64 { return s.Writes })
	r.CounterFunc(prefix+"rowbuffer_hits_total", "writes absorbed by an open PSM row buffer", func() uint64 { return s.RowBufferHits })
	r.CounterFunc(prefix+"rowbuffer_writes_total", "writes that reached the PSM", func() uint64 { return s.RowBufferWrites })
	r.CounterFunc(prefix+"dcache_read_hits_total", "D$ read hits", func() uint64 { return s.DReadHits })
	r.CounterFunc(prefix+"dcache_reads_total", "D$ read lookups", func() uint64 { return s.DReadTotal })
	r.CounterFunc(prefix+"dcache_write_hits_total", "D$ write hits", func() uint64 { return s.DWriteHits })
	r.CounterFunc(prefix+"dcache_writes_total", "D$ write lookups", func() uint64 { return s.DWriteTotal })
}

// RegisterSnapshotStats exposes a snapshot.Stats fork accountant: how many
// platform forks ran and how many bytes of mutable state they duplicated.
// The totals are atomic sums, so they are identical at any -j worker count.
func RegisterSnapshotStats(r *Registry, prefix string, s *snapshot.Stats) {
	if r == nil || s == nil {
		return
	}
	r.CounterFunc(prefix+"snapshot_forks_total", "platform forks taken from snapshots", s.Forks)
	r.CounterFunc(prefix+"snapshot_bytes_total", "approximate bytes of mutable state duplicated by forks", s.Bytes)
}
