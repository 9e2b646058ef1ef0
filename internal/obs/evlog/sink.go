package evlog

import (
	"sync"

	"webtextie/internal/obs"
	"webtextie/internal/obs/trace"
)

// Config bounds a Sink. The retention model keeps three classes of
// records, each an obs.Keeper like the trace recorder's:
//
//	pinned     Warn/Error records, bottom-PinKeep by FNV priority
//	tail       the TailKeep most recent Debug/Info records
//	reservoir  a bottom-k hash sample of Debug/Info tail evictees
//
// All three are pure functions of the emitted record multiset, so the
// retained set does not depend on emission interleaving, and two
// same-seed runs export byte-identical logs. Exact per-(component,
// level) totals are always kept, even for shed records.
type Config struct {
	// Seed feeds sampling decisions and retention priorities.
	Seed uint64
	// MinLevel drops records below it at emission (default Debug).
	MinLevel Level
	// TailKeep is the ring of most recent Debug/Info records.
	TailKeep int
	// ReservoirKeep is the bottom-k sample size over tail evictees.
	ReservoirKeep int
	// PinKeep caps retained Warn/Error records.
	PinKeep int
}

// DefaultConfig returns the calibrated sink bounds for a seed.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		TailKeep:      256,
		ReservoirKeep: 64,
		PinKeep:       256,
	}
}

// bucket is one component's token bucket, in virtual time. The state is
// exported so snapshots can carry budgets across checkpoint/resume.
type bucket struct {
	Burst  float64 `json:"burst"`
	PerSec float64 `json:"per_sec"`
	Tokens float64 `json:"tokens"`
	LastMs int64   `json:"last_ms"`
}

// take spends one token, refilling first from elapsed virtual time.
func (b *bucket) take(atMs int64) bool {
	if atMs > b.LastMs {
		b.Tokens += float64(atMs-b.LastMs) * b.PerSec / 1000
		if b.Tokens > b.Burst {
			b.Tokens = b.Burst
		}
		b.LastMs = atMs
	}
	if b.Tokens < 1 {
		return false
	}
	b.Tokens--
	return true
}

// Sink collects records under a single mutex. All methods are safe for
// concurrent use; a nil *Sink is a valid always-off sink.
type Sink struct {
	mu  sync.Mutex
	cfg Config
	reg *obs.Registry

	pinned *obs.Keeper[entry] // Warn/Error, bottom-PinKeep by priority
	tail   *obs.Keeper[entry] // Debug/Info, most recent TailKeep
	resv   *obs.Keeper[entry] // bottom-ReservoirKeep sample of tail evictees

	totals  map[string]uint64 // "<level> <component>" -> emitted count
	buckets map[string]*bucket
	stats   Stats

	counters map[string]*obs.Counter // derived-metric cache
}

// Stats are the sink's emission and loss counters. Emitted counts every
// record past the level gate (including ones later shed by retention);
// the drop counters partition everything that did not survive.
type Stats struct {
	Emitted          uint64 `json:"emitted"`
	DroppedSampled   uint64 `json:"dropped_sampled,omitempty"`
	DroppedRated     uint64 `json:"dropped_rated,omitempty"`
	DroppedRetention uint64 `json:"dropped_retention,omitempty"`
	PinDropped       uint64 `json:"pin_dropped,omitempty"`
}

// NewSink returns a sink with the given bounds. Non-positive bounds fall
// back to DefaultConfig values.
func NewSink(cfg Config) *Sink {
	def := DefaultConfig(cfg.Seed)
	if cfg.TailKeep <= 0 {
		cfg.TailKeep = def.TailKeep
	}
	if cfg.ReservoirKeep <= 0 {
		cfg.ReservoirKeep = def.ReservoirKeep
	}
	if cfg.PinKeep <= 0 {
		cfg.PinKeep = def.PinKeep
	}
	return &Sink{
		cfg:      cfg,
		pinned:   obs.NewKeeper(cfg.PinKeep, byPriority),
		tail:     obs.NewKeeper(cfg.TailKeep, newestFirst),
		resv:     obs.NewKeeper(cfg.ReservoirKeep, byPriority),
		totals:   map[string]uint64{},
		buckets:  map[string]*bucket{},
		counters: map[string]*obs.Counter{},
	}
}

// WithMetrics derives log->metric counters into the registry: every
// emitted record increments evlog.records.<component>.<level>.
func (s *Sink) WithMetrics(reg *obs.Registry) *Sink {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.reg = reg
	s.mu.Unlock()
	return s
}

// Logger returns a component-scoped logger. Components are dotted
// lower-case constants ("crawler.fetch", "dataflow.op"); the lintx
// logcall check enforces the grammar. A nil sink returns the no-op zero
// Logger.
func (s *Sink) Logger(component string) Logger {
	if s == nil {
		return Logger{}
	}
	return Logger{s: s, component: component}
}

// totalKey is the totals map key: "<level> <component>" (level first so
// the sorted text rendering groups by severity).
func totalKey(lv Level, component string) string {
	return lv.String() + " " + component
}

func (s *Sink) countSampledDrop() {
	s.mu.Lock()
	s.stats.DroppedSampled++
	s.mu.Unlock()
}

func (s *Sink) ensureBucket(component string, burst int, perSec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[component]; !ok {
		s.buckets[component] = &bucket{Burst: float64(burst), PerSec: perSec, Tokens: float64(burst)}
	}
}

// emit admits one record through the level gate, the rate bucket, and
// retention, and feeds the totals and derived counters.
func (s *Sink) emit(rateKey string, r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Level < s.cfg.MinLevel {
		return
	}
	if rateKey != "" {
		if b := s.buckets[rateKey]; b != nil && !b.take(r.AtMs) {
			s.stats.DroppedRated++
			return
		}
	}
	s.stats.Emitted++
	key := totalKey(r.Level, r.Component)
	s.totals[key]++
	if s.reg != nil {
		c := s.counters[key] // cached: the registry lookup allocates and locks
		if c == nil {
			c = s.reg.Counter(MetricName("evlog", "records", r.Component, r.Level.String()))
			s.counters[key] = c
		}
		c.Inc()
	}
	s.admitLocked(r)
}

// entry is a retained record with its identity — the canonical line and
// the seeded priority hashed from it — computed once, at admission. Both
// are pure functions of the record's content, so every order below is
// independent of emission order.
type entry struct {
	rec  Record
	line string
	prio uint64
}

// byPriority is the (priority, line) order the pinned class and the
// reservoir keep the smallest of.
func byPriority(a, b *entry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.line < b.line
}

// newestFirst is the tail's order, (AtMs, priority, line) descending:
// virtual time first, so what the tail evicts is genuinely the oldest.
func newestFirst(a, b *entry) bool {
	if a.rec.AtMs != b.rec.AtMs {
		return a.rec.AtMs > b.rec.AtMs
	}
	return byPriority(b, a)
}

// admitLocked is the one way into retention, for live emission and Load
// alike: Warn/Error records go to the pinned class, the rest to the tail,
// whose evictee is offered to the reservoir.
func (s *Sink) admitLocked(r Record) {
	e := entry{rec: r, line: r.line()}
	e.prio = obs.FNVMix(s.cfg.Seed, obs.FNVString(e.line))
	if r.Level >= Warn {
		if _, full := s.pinned.Offer(e); full {
			s.stats.PinDropped++
		}
		return
	}
	if old, full := s.tail.Offer(e); full {
		if _, full := s.resv.Offer(old); full {
			s.stats.DroppedRetention++
		}
	}
}

// Len returns the number of retained records.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lenLocked()
}

func (s *Sink) lenLocked() int {
	return len(s.pinned.Items()) + len(s.tail.Items()) + len(s.resv.Items())
}

// Snapshot is a deep, consistent copy of the sink: retained records in
// canonical order plus the totals, loss counters, and bucket states
// needed to continue after a resume. It is plain JSON-encodable data.
type Snapshot struct {
	Stats   Stats             `json:"stats"`
	Totals  map[string]uint64 `json:"totals,omitempty"`
	Buckets map[string]bucket `json:"buckets,omitempty"`
	Records []Record          `json:"records"`
}

// Snapshot freezes the sink. The copy shares nothing with the live sink.
func (s *Sink) Snapshot() *Snapshot {
	if s == nil {
		return &Snapshot{Records: []Record{}}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &Snapshot{Stats: s.stats}
	if len(s.totals) > 0 {
		out.Totals = make(map[string]uint64, len(s.totals))
		for k, v := range s.totals {
			out.Totals[k] = v
		}
	}
	if len(s.buckets) > 0 {
		out.Buckets = make(map[string]bucket, len(s.buckets))
		for k, b := range s.buckets {
			out.Buckets[k] = *b
		}
	}
	es := make([]entry, 0, s.lenLocked())
	for _, class := range []*obs.Keeper[entry]{s.pinned, s.tail, s.resv} {
		es = append(es, class.Items()...)
	}
	out.Records = canonical(es)
	return out
}

// Load restores a snapshot into a fresh sink (the resume half of
// checkpoint/resume). The records re-enter through admitLocked: retention
// is a pure function of what was admitted and a retained set always fits
// its bounds, so every record lands back in its class, no loss counter
// moves, and retention after the resume proceeds exactly as it would have
// in the uninterrupted run.
// Load panics if the sink has already emitted: resuming into a used sink
// would fold two runs' budgets together.
func (s *Sink) Load(snap *Snapshot) {
	if s == nil || snap == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats.Emitted > 0 || s.lenLocked() > 0 {
		panic("evlog: Load into a used sink")
	}
	s.stats = snap.Stats
	for k, v := range snap.Totals {
		s.totals[k] = v
	}
	for k, b := range snap.Buckets {
		cp := b
		s.buckets[k] = &cp
	}
	for _, r := range snap.Records {
		r.Attrs = append([]trace.Attr(nil), r.Attrs...)
		s.admitLocked(r)
	}
}
