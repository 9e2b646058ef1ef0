// Package obs is the repo's dependency-free observability substrate:
// atomic counters, gauges and fixed-bucket histograms collected in a
// named registry with snapshot/merge and deterministic text rendering,
// plus the one stopwatch (StartSpan) for the durations a program prints.
//
// The paper's war stories are measurement stories — the 20-minute
// dictionary loads (§4.2), the DoP capped by 6-20 GB workers (§4.2), the
// 3-4 docs/sec fetch rate (§4.1), tools crashing on degenerate pages (§5).
// Every hot path in this repo (dataflow executor, focused crawler, fact
// store, near-dedup index) reports into an obs.Registry so those numbers
// are observable on every run, and so later performance PRs have a uniform
// substrate to benchmark against.
//
// Naming scheme: dotted lower-case paths, component first —
//
//	crawler.fetch.ok              counter   successful downloads
//	crawler.cycle.fetched         histogram fetches per generate/fetch cycle
//	dataflow.op.03.pos_tag.in     counter   records into plan node 3
//	store.write.records           counter   fact-database rows written
//
// The registry holds no clock readings: every value in it is a function
// of the seed, so two same-seed runs render byte-identical snapshots.
// Where the wall time went is the stage profiler's question (obs/prof).
//
// All metric types are safe for concurrent use. A Snapshot is a plain
// value: Merge folds shard registries together, and Text renders it
// deterministically (sorted names) for golden tests, end-of-run dumps and
// the debug server's /metrics.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n should be >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (pages on the frontier).
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with bounds[i-1] < v <= bounds[i]; one extra overflow
// bucket catches v > bounds[len-1] (rendered as +Inf).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefaultMsBuckets is the standard bucket layout for virtual-clock
// milliseconds, spanning sub-millisecond values to the paper's 20-minute
// dictionary loads.
var DefaultMsBuckets = []float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 30000, 60000, 300000, 1200000,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultMsBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	// Drop duplicates and non-finite bounds.
	out := bs[:0]
	for _, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		if len(out) == 0 || b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return &Histogram{bounds: out, counts: make([]atomic.Int64, len(out)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bounds[i]
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Span is a stopwatch: s := obs.StartSpan(); ...; d := s.End(). It
// records nothing — the caller prints the duration. Outside this package
// and the profiler it is the only sanctioned wall-clock read (the lintx
// determinism analyzer enforces that).
type Span struct{ start time.Time }

// StartSpan starts a stopwatch.
func StartSpan() Span { return Span{start: time.Now()} }

// End returns the time elapsed since StartSpan.
func (s Span) End() time.Duration { return time.Since(s.start) }

// Registry is a named collection of metrics. Metrics are get-or-create:
// the first caller of a name determines the metric (and, for histograms,
// the bucket layout); later callers receive the same instance. Counters,
// gauges, and histograms live in separate namespaces.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// std is the process-wide default registry.
var std = New()

// Default returns the process-wide registry — the one `--metrics` dumps.
// Components that are not handed an explicit registry report here.
func Default() *Registry { return std }

// Or returns r, or the default registry when r is nil.
func Or(r *Registry) *Registry {
	if r == nil {
		return std
	}
	return r
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds if needed (DefaultMsBuckets when none are given). The
// bounds of an existing histogram are never changed.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}
