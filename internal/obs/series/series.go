// Package series is the fourth observability pillar: deterministic
// virtual-clock time series over the metric registry. A Recorder
// periodically samples registry counters and gauges (per crawl cycle in
// the plain crawler, per BSP round at the fleet barrier in the sharded
// one) and retains each metric's newest samples in one bounded ring, so
// "harvest rate over crawl progress" — the paper's temporal pitfall
// analysis — becomes a first-class, byte-identical export instead of an
// end-of-run total.
//
// Everything is a pure function of the sample stream: timestamps come
// from the deterministic virtual clocks, and snapshots capture the full
// internal state so a checkpoint/resume cut replays to byte-identical
// exports.
package series

import (
	"sort"
	"sync"

	"webtextie/internal/obs"
)

// Config sizes a Recorder's per-series retention. A zero RawCap falls
// back to DefaultConfig's.
type Config struct {
	// RawCap bounds the sample ring (newest RawCap points kept).
	RawCap int `json:"raw_cap"`
}

// DefaultConfig is the retention the CLIs use: 512 samples per series,
// more cycles than any crawl the repo runs.
func DefaultConfig() Config {
	return Config{RawCap: 512}
}

// normalized fills a zero or negative RawCap from DefaultConfig.
func (c Config) normalized() Config {
	if c.RawCap <= 0 {
		c.RawCap = DefaultConfig().RawCap
	}
	return c
}

// Point is one sample on the virtual clock.
type Point struct {
	AtMs int64   `json:"at_ms"`
	V    float64 `json:"v"`
}

// seriesState is one metric's retained history.
type seriesState struct {
	total int64 // samples ever observed, including evicted
	ring  []Point
	head  int
	n     int
}

func (st *seriesState) add(p Point) {
	st.total++
	if st.n < len(st.ring) {
		st.ring[(st.head+st.n)%len(st.ring)] = p
		st.n++
		return
	}
	st.ring[st.head] = p
	st.head = (st.head + 1) % len(st.ring)
}

// points returns the live ring oldest-first.
func (st *seriesState) points() []Point {
	if st.n == 0 {
		return nil
	}
	out := make([]Point, st.n)
	for i := 0; i < st.n; i++ {
		out[i] = st.ring[(st.head+i)%len(st.ring)]
	}
	return out
}

// Recorder accumulates time series. All methods are safe on a nil
// receiver (no-ops / zero values), so callers gate sampling with a
// single nil check, and safe for concurrent use — though the crawl
// integration only ever samples from one goroutine (per cycle, or
// post-barrier at the fleet round boundary).
type Recorder struct {
	mu     sync.Mutex
	cfg    Config
	series map[string]*seriesState
}

// New returns an empty Recorder with cfg (zero fields defaulted).
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.normalized(), series: map[string]*seriesState{}}
}

// Config returns the recorder's normalized retention config.
func (r *Recorder) Config() Config {
	if r == nil {
		return Config{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg
}

// Observe appends one sample to the named series. Names follow the same
// constant lower-dotted grammar as metric names (the lintx seriesname
// check enforces this at call sites outside internal/obs).
func (r *Recorder) Observe(name string, atMs int64, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observe(name, atMs, v)
}

func (r *Recorder) observe(name string, atMs int64, v float64) {
	st := r.series[name]
	if st == nil {
		st = &seriesState{ring: make([]Point, r.cfg.RawCap)}
		r.series[name] = st
	}
	st.add(Point{AtMs: atMs, V: v})
}

// Sample appends one sample per counter and gauge in the registry
// snapshot, all stamped atMs. Counters are folded first (sorted by
// name), then gauges (sorted by name); a gauge whose name collides with
// a counter is skipped, so each series stays single-kinded. Histograms
// are not sampled — their count/sum already surface as derived series
// where callers need them.
func (r *Recorder) Sample(atMs int64, snap obs.Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(snap.Counters)+len(snap.Gauges))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.observe(n, atMs, float64(snap.Counters[n]))
	}
	names = names[:0]
	for n := range snap.Gauges {
		if _, dup := snap.Counters[n]; dup {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.observe(n, atMs, float64(snap.Gauges[n]))
	}
}

// Snapshot freezes the recorder: every series sorted by name, its ring
// unrolled oldest-first with its all-time sample count. The snapshot is
// a deep copy and captures enough state that Load into a fresh recorder
// continues the streams exactly where they stopped.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &Snapshot{Config: r.cfg, Series: make([]*SeriesData, 0, len(r.series))}
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		st := r.series[name]
		out.Series = append(out.Series, &SeriesData{Name: name, Total: st.total, Points: st.points()})
	}
	return out
}

// Load replaces the recorder's state with the snapshot's — the restore
// half of checkpoint/resume. The snapshot's config is adopted (so a
// resumed run keeps the retention shape it was checkpointed with), and
// subsequent samples behave exactly as if the recorder had never been
// restarted.
func (r *Recorder) Load(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg = s.Config.normalized()
	r.series = make(map[string]*seriesState, len(s.Series))
	for _, sd := range s.Series {
		if sd == nil {
			continue
		}
		st := &seriesState{ring: make([]Point, r.cfg.RawCap)}
		for _, p := range sd.Points {
			st.add(p)
		}
		st.total = sd.Total
		r.series[sd.Name] = st
	}
}
