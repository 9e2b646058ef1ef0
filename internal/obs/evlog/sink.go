package evlog

import (
	"sync"

	"webtextie/internal/obs"
	"webtextie/internal/obs/trace"
)

// The sink's retention bounds. The retention model keeps three classes
// of records, each an obs.Keeper like the trace recorder's:
//
//	pinned     Warn/Error records, bottom-pinKeep by FNV priority
//	tail       the tailKeep most recent Debug/Info records
//	reservoir  a bottom-k hash sample of Debug/Info tail evictees
//
// All three are pure functions of the emitted record multiset, so the
// retained set does not depend on emission interleaving, and two
// same-seed runs export byte-identical logs. Exact per-(component,
// level) totals are always kept, even for shed records.
const (
	tailKeep      = 256
	reservoirKeep = 64
	pinKeep       = 256
)

// Config configures a Sink.
type Config struct {
	// Seed feeds retention priorities.
	Seed uint64
}

// DefaultConfig returns the sink configuration for a seed.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed}
}

// Sink collects records under a single mutex. All methods are safe for
// concurrent use; a nil *Sink is a valid always-off sink.
type Sink struct {
	mu   sync.Mutex
	seed uint64

	pinned *obs.Keeper[entry] // Warn/Error, bottom-pinKeep by priority
	tail   *obs.Keeper[entry] // Debug/Info, most recent tailKeep
	resv   *obs.Keeper[entry] // bottom-reservoirKeep sample of tail evictees

	totals map[string]uint64 // "<level> <component>" -> emitted count
}

// NewSink returns a sink with the package's retention bounds.
func NewSink(cfg Config) *Sink {
	return newSink(cfg.Seed, tailKeep, reservoirKeep, pinKeep)
}

// newSink returns a sink with the given retention bounds.
func newSink(seed uint64, tail, resv, pin int) *Sink {
	return &Sink{
		seed:   seed,
		pinned: obs.NewKeeper(pin, byPriority),
		tail:   obs.NewKeeper(tail, newestFirst),
		resv:   obs.NewKeeper(resv, byPriority),
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

// emit counts one record in the totals and admits it to retention.
func (s *Sink) emit(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	e.prio = obs.FNVMix(s.seed, obs.FNVString(e.line))
	if r.Level >= Warn {
		s.pinned.Offer(e)
		return
	}
	if old, full := s.tail.Offer(e); full {
		s.resv.Offer(old)
	}
}

func (s *Sink) lenLocked() int {
	return len(s.pinned.Items()) + len(s.tail.Items()) + len(s.resv.Items())
}

// Snapshot is a deep, consistent copy of the sink: retained records in
// canonical order plus the totals needed to continue after a resume. It
// is plain JSON-encodable data.
type Snapshot struct {
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
	out := &Snapshot{}
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
// its bounds, so every record lands back in its class, and retention
// after the resume proceeds exactly as it would have in the uninterrupted
// run.
// Load panics if the sink has already emitted: resuming into a used sink
// would fold two runs' records together.
func (s *Sink) Load(snap *Snapshot) {
	if s == nil || snap == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.totals) > 0 || s.lenLocked() > 0 {
		panic("evlog: Load into a used sink")
	}
	for k, v := range snap.Totals {
		s.totals[k] = v
	}
	for _, r := range snap.Records {
		r.Attrs = append([]trace.Attr(nil), r.Attrs...)
		s.admitLocked(r)
	}
}
