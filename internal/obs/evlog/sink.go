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

// Sink collects records under a single mutex. All methods are safe for
// concurrent use; a nil *Sink is a valid always-off sink.
type Sink struct {
	mu  sync.Mutex
	cfg Config

	pinned *obs.Keeper[entry] // Warn/Error, bottom-PinKeep by priority
	tail   *obs.Keeper[entry] // Debug/Info, most recent TailKeep
	resv   *obs.Keeper[entry] // bottom-ReservoirKeep sample of tail evictees

	totals map[string]uint64 // "<level> <component>" -> emitted count
	stats  Stats
}

// Stats are the sink's emission and loss counters. Emitted counts every
// record not sampled out (including ones later shed by retention);
// the drop counters partition everything that did not survive.
type Stats struct {
	Emitted          uint64 `json:"emitted"`
	DroppedSampled   uint64 `json:"dropped_sampled,omitempty"`
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
		cfg:    cfg,
		pinned: obs.NewKeeper(cfg.PinKeep, byPriority),
		tail:   obs.NewKeeper(cfg.TailKeep, newestFirst),
		resv:   obs.NewKeeper(cfg.ReservoirKeep, byPriority),
		totals: map[string]uint64{},
	}
}

// Logger returns a component-scoped logger. Components are dotted
// lower-case constants ("crawler.breaker", "dataflow.op"); the lintx
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

// emit counts one record in the totals and admits it to retention.
func (s *Sink) emit(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Emitted++
	s.totals[totalKey(r.Level, r.Component)]++
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

func (s *Sink) lenLocked() int {
	return len(s.pinned.Items()) + len(s.tail.Items()) + len(s.resv.Items())
}

// Snapshot is a deep, consistent copy of the sink: retained records in
// canonical order plus the totals and loss counters needed to continue
// after a resume. It is plain JSON-encodable data.
type Snapshot struct {
	Stats   Stats             `json:"stats"`
	Totals  map[string]uint64 `json:"totals,omitempty"`
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
// would fold two runs' records together.
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
	for _, r := range snap.Records {
		r.Attrs = append([]trace.Attr(nil), r.Attrs...)
		s.admitLocked(r)
	}
}
