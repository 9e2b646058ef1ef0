package trace

import (
	"cmp"
	"slices"
	"sync"

	"webtextie/internal/obs"
)

// Config bounds the Recorder. The retention model keeps four classes of
// completed traces, in descending priority:
//
//	pinned     flight-recorder traces (error-class events), up to PinLimit
//	head       the first HeadKeep traces ever started (crawl warm-up)
//	tail       the TailKeep most recently started completed traces
//	reservoir  a bottom-k hash sample of everything in between
//
// All four are pure functions of the trace set — the tail and the
// reservoir are two obs.Keepers, the first feeding the second — so the
// retained set at end of run does not depend on completion-order races
// between worker goroutines.
type Config struct {
	// Seed feeds the FNV ID stream and the reservoir priorities.
	Seed uint64
	// HeadKeep is the number of first-started traces always retained.
	HeadKeep int
	// TailKeep is the ring of most recently started completed traces.
	TailKeep int
	// ReservoirKeep is the bottom-k sample size over evicted mid traces.
	ReservoirKeep int
	// PinLimit caps flight-recorder pins; error traces beyond it fall back
	// to normal retention (counted in SnapshotStats.PinDropped).
	PinLimit int
	// MaxActive caps concurrently unfinished traces; Start beyond the cap
	// returns a disabled Context (counted in SnapshotStats.DroppedActive).
	MaxActive int
}

// DefaultConfig returns the calibrated recorder bounds for a seed.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		HeadKeep:      16,
		TailKeep:      64,
		ReservoirKeep: 32,
		PinLimit:      256,
		MaxActive:     1 << 16,
	}
}

// Recorder collects traces under a single mutex. All methods are safe for
// concurrent use; a nil *Recorder is a valid always-off recorder.
type Recorder struct {
	mu  sync.Mutex
	cfg Config

	startSeq uint64
	traces   map[TraceID]*live
	active   int
	pinCount int

	// tail and reservoir hold the completed, unpinned, non-head traces
	// (head membership is implicit in StartIndex < HeadKeep).
	tail      *obs.Keeper[kept]
	reservoir *obs.Keeper[kept]

	dropped       uint64 // completed traces evicted
	droppedActive uint64 // Start calls refused by MaxActive
	pinDropped    uint64 // error traces not pinned (PinLimit)
}

// NewRecorder returns a recorder with the given bounds. Non-positive
// bounds fall back to DefaultConfig values.
func NewRecorder(cfg Config) *Recorder {
	def := DefaultConfig(cfg.Seed)
	if cfg.HeadKeep <= 0 {
		cfg.HeadKeep = def.HeadKeep
	}
	if cfg.TailKeep <= 0 {
		cfg.TailKeep = def.TailKeep
	}
	if cfg.ReservoirKeep <= 0 {
		cfg.ReservoirKeep = def.ReservoirKeep
	}
	if cfg.PinLimit <= 0 {
		cfg.PinLimit = def.PinLimit
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = def.MaxActive
	}
	return &Recorder{
		cfg:       cfg,
		traces:    map[TraceID]*live{},
		tail:      obs.NewKeeper(cfg.TailKeep, newestFirst),
		reservoir: obs.NewKeeper(cfg.ReservoirKeep, byPriority),
	}
}

// live is a trace as the recorder holds it: the exported Trace plus
// inline storage for a short trace — its root span, a one-entry span
// list, the root's first event and a few attrs — so Start makes one
// object. Snapshots copy the embedded Trace alone.
type live struct {
	Trace
	root   SpanData
	spans  [1]*SpanData
	events [1]Event
	attrs  [4]Attr
	nattrs int // attrs entries in use
}

// hold returns n attr slots the trace keeps: from the inline buffer while
// it has room, else a fresh slice. The slots are capped, so no append to
// them reaches the buffer's next entries.
func (l *live) hold(n int) []Attr {
	if n == 0 {
		return nil
	}
	if l.nattrs+n > len(l.attrs) {
		return make([]Attr, n)
	}
	a := l.attrs[l.nattrs : l.nattrs+n : l.nattrs+n]
	l.nattrs += n
	return a
}

// keep copies a call site's attrs into slots the trace holds, so the
// caller's variadic slice never escapes.
func (l *live) keep(attrs []Attr) []Attr {
	a := l.hold(len(attrs))
	copy(a, attrs)
	return a
}

// kept is an evictable trace's retention identity, computed once when it
// completes: the tail keeps the largest start indices, the reservoir the
// smallest seeded priorities (a pure function of (seed, trace ID)) among
// the traces the tail let go.
type kept struct {
	id        TraceID
	idx, prio uint64
}

func newestFirst(a, b *kept) bool { return a.idx > b.idx }

func byPriority(a, b *kept) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.id < b.id
}

// Context is a value handle onto one span of one trace. The zero Context
// (and any Context from a nil recorder) is a no-op on every method, which
// is the entire tracing-off fast path.
type Context struct {
	r     *Recorder
	Trace TraceID
	Span  SpanID
}

// Active reports whether the context records anywhere.
func (c Context) Active() bool { return c.r != nil }

// Start begins a new trace whose root span has the given name, keyed by
// the document identity (URL, record key). IDs derive from
// (seed, key, start sequence), so same-seed runs mint identical IDs.
func (r *Recorder) Start(name, key string, atMs int64, attrs ...Attr) Context {
	if r == nil {
		return Context{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active >= r.cfg.MaxActive {
		r.droppedActive++
		return Context{}
	}
	idx := r.startSeq
	r.startSeq++
	id := TraceID(nonZero(obs.FNVMix(r.cfg.Seed, obs.FNVString(key), idx)))
	l := &live{Trace: Trace{ID: id, Key: key, StartIndex: idx, StartMs: atMs, EndMs: atMs}}
	l.root = SpanData{
		ID:      SpanID(nonZero(obs.FNVMix(uint64(id), 0, 0))),
		Name:    name,
		StartMs: atMs,
		EndMs:   atMs,
		Attrs:   l.keep(attrs),
		Events:  l.events[:0],
	}
	l.spans[0] = &l.root
	l.Spans = l.spans[:]
	r.traces[id] = l
	r.active++
	return Context{r: r, Trace: id, Span: l.root.ID}
}

// Context returns a handle onto the root span of a known unfinished
// trace — how the crawler re-enters a URL's trace from the ID stored in
// the CrawlDB. Unknown or finished traces yield a no-op Context.
func (r *Recorder) Context(id TraceID) Context {
	if r == nil {
		return Context{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.traces[id]
	if t == nil || t.Done || len(t.Spans) == 0 {
		return Context{}
	}
	return Context{r: r, Trace: id, Span: t.Spans[0].ID}
}

// lockedSpan resolves the context's span with the recorder lock held.
func (c Context) lockedSpan() (*live, *SpanData) {
	t := c.r.traces[c.Trace]
	if t == nil {
		return nil, nil
	}
	return t, t.span(c.Span)
}

// StartSpan opens a child span. The span ID derives from the per-trace
// span sequence, which is deterministic for serial emitters (the crawler);
// concurrent emitters must use StartSpanKeyed instead.
func (c Context) StartSpan(name string, atMs int64, attrs ...Attr) Context {
	if c.r == nil {
		return c
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	t := c.r.traces[c.Trace]
	if t == nil || t.Done {
		return Context{}
	}
	return c.startSpanLocked(t, name, uint64(len(t.Spans)), atMs, attrs)
}

// StartSpanKeyed opens a child span whose ID derives from the caller's
// slot key instead of the racy span count — the concurrent-emitter form
// (the dataflow executor keys spans by (node id, emit index), which is
// deterministic per record path regardless of worker interleaving).
func (c Context) StartSpanKeyed(name string, slot uint64, atMs int64, attrs ...Attr) Context {
	if c.r == nil {
		return c
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	t := c.r.traces[c.Trace]
	if t == nil || t.Done {
		return Context{}
	}
	return c.startSpanLocked(t, name, slot, atMs, attrs)
}

func (c Context) startSpanLocked(t *live, name string, slot uint64, atMs int64, attrs []Attr) Context {
	sp := &SpanData{
		ID:      SpanID(nonZero(obs.FNVMix(uint64(c.Trace), uint64(c.Span), slot, obs.FNVString(name)))),
		Parent:  c.Span,
		Name:    name,
		StartMs: atMs,
		EndMs:   atMs,
		Attrs:   t.keep(attrs),
	}
	t.Spans = append(t.Spans, sp)
	if atMs > t.EndMs {
		t.EndMs = atMs
	}
	return Context{r: c.r, Trace: c.Trace, Span: sp.ID}
}

// Event appends a point event to the context's span.
func (c Context) Event(name string, atMs int64, attrs ...Attr) {
	if c.r == nil {
		return
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	t, sp := c.lockedSpan()
	if t == nil || sp == nil || t.Done {
		return
	}
	sp.Events = append(sp.Events, Event{Name: name, AtMs: atMs, Attrs: t.keep(attrs)})
	if atMs > sp.EndMs {
		sp.EndMs = atMs
	}
	if atMs > t.EndMs {
		t.EndMs = atMs
	}
}

// End closes the context's span at atMs (monotone: earlier times are
// ignored).
func (c Context) End(atMs int64) {
	if c.r == nil {
		return
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	t, sp := c.lockedSpan()
	if t == nil || sp == nil || t.Done {
		return
	}
	if atMs > sp.EndMs {
		sp.EndMs = atMs
	}
	if atMs > t.EndMs {
		t.EndMs = atMs
	}
}

// Error records an error-class event on the span and — the flight
// recorder — pins the whole trace so its span tree survives ring-buffer
// eviction. Classes are short constants ("quarantine", "breaker_open").
func (c Context) Error(class string, atMs int64, attrs ...Attr) {
	if c.r == nil {
		return
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	t, sp := c.lockedSpan()
	if t == nil || sp == nil || t.Done {
		return
	}
	a := t.hold(1 + len(attrs))
	a[0] = Attr{Key: "class", Value: class}
	copy(a[1:], attrs)
	sp.Events = append(sp.Events, Event{Name: "error", AtMs: atMs, Attrs: a})
	if atMs > t.EndMs {
		t.EndMs = atMs
	}
	t.addErrClass(class)
	c.r.pinLocked(&t.Trace)
}

// pinLocked promotes a trace to the pinned retention class. Only an
// unfinished trace gets here (Error refuses a finished one), so it is in
// neither evictable class yet.
func (r *Recorder) pinLocked(t *Trace) {
	if t.Pinned {
		return
	}
	if r.pinCount >= r.cfg.PinLimit {
		r.pinDropped++
		return
	}
	t.Pinned = true
	r.pinCount++
}

// Finish completes the trace and applies retention. Finishing an already
// finished or unknown trace is a no-op.
func (c Context) Finish(atMs int64) {
	if c.r == nil {
		return
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	t := c.r.traces[c.Trace]
	if t == nil || t.Done {
		return
	}
	t.Done = true
	if atMs > t.EndMs {
		t.EndMs = atMs
	}
	// Close the finishing span (normally the root) with the trace.
	if sp := t.span(c.Span); sp != nil && t.EndMs > sp.EndMs {
		sp.EndMs = t.EndMs
	}
	c.r.active--
	c.r.retainLocked(&t.Trace)
}

// retainLocked slots one completed trace into the retention classes — on
// Finish and on Load alike — and drops the loser, if any: the tail's
// evictee is offered to the reservoir, the reservoir's leaves the
// recorder. Pure in the trace set: the same completed traces yield the
// same retained set in any completion order.
func (r *Recorder) retainLocked(t *Trace) {
	if t.Pinned || t.StartIndex < uint64(r.cfg.HeadKeep) {
		return
	}
	old, full := r.tail.Offer(kept{id: t.ID, idx: t.StartIndex, prio: obs.FNVMix(r.cfg.Seed, ^uint64(t.ID))})
	if !full {
		return
	}
	if lost, full := r.reservoir.Offer(old); full {
		delete(r.traces, lost.id)
		r.dropped++
	}
}

// SnapshotStats are the recorder's loss counters.
type SnapshotStats struct {
	Dropped       uint64 `json:"dropped,omitempty"`
	DroppedActive uint64 `json:"dropped_active,omitempty"`
	PinDropped    uint64 `json:"pin_dropped,omitempty"`
}

// Snapshot is a consistent copy of the recorder: every retained trace
// (active and completed) in StartIndex order with spans sorted into the
// canonical deterministic order, plus the sequence counters needed to
// continue the ID stream after a resume. It is plain JSON-encodable data,
// and read-only: its traces and spans are its own, but their Attrs and
// Events slices share the recorder's backing arrays.
type Snapshot struct {
	StartSeq uint64        `json:"start_seq"`
	Stats    SnapshotStats `json:"stats,omitempty"`
	Traces   []*Trace      `json:"traces"`
}

// Snapshot freezes the recorder. Later emission never shows in the copy:
// the recorder only appends to the attr and event slices it shares, past
// the copy's capped ends, and never rewrites an element of one.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		StartSeq: r.startSeq,
		Stats: SnapshotStats{
			Dropped:       r.dropped,
			DroppedActive: r.droppedActive,
			PinDropped:    r.pinDropped,
		},
		Traces: make([]*Trace, 0, len(r.traces)),
	}
	for _, t := range r.traces {
		s.Traces = append(s.Traces, &t.Trace)
	}
	slices.SortFunc(s.Traces, func(a, b *Trace) int { return cmp.Compare(a.StartIndex, b.StartIndex) })
	freeze(s.Traces)
	return s
}

// freeze replaces every trace in ts by a copy, made in blocks: one slice
// of traces, one of spans, one of span pointers and one of error classes
// for all of them, whatever their number. Each copy's spans are sorted
// canonically by (StartMs, Parent, ID): insertion order can race under
// concurrent emitters, and the sort key is made of derived values only, so
// the canonical order is deterministic per seed. Attrs and Events are
// shared, capped at their length; ErrClasses is copied, since addErrClass
// inserts in place.
func freeze(ts []*Trace) {
	var nSpans, nErrs int
	for _, t := range ts {
		nSpans += len(t.Spans)
		nErrs += len(t.ErrClasses)
	}
	traces := make([]Trace, len(ts))
	spans := make([]SpanData, nSpans)
	ptrs := make([]*SpanData, nSpans)
	errs := make([]string, nErrs)
	for i, t := range ts {
		cp := &traces[i]
		*cp = *t
		n := len(t.Spans)
		cp.Spans, ptrs = ptrs[:n:n], ptrs[n:]
		for j, sp := range t.Spans {
			spans[j] = *sp
			spans[j].Attrs = capped(sp.Attrs)
			spans[j].Events = capped(sp.Events)
			cp.Spans[j] = &spans[j]
		}
		spans = spans[n:]
		if n > 1 {
			slices.SortFunc(cp.Spans, spanOrder)
		}
		cp.ErrClasses = nil
		if k := len(t.ErrClasses); k > 0 {
			cp.ErrClasses, errs = errs[:k:k], errs[k:]
			copy(cp.ErrClasses, t.ErrClasses)
		}
		ts[i] = cp
	}
}

// capped is s with no spare capacity, nil when empty.
func capped[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
}

// spanOrder is the canonical span order.
func spanOrder(a, b *SpanData) int {
	if c := cmp.Compare(a.StartMs, b.StartMs); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Parent, b.Parent); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// Load restores a snapshot into a fresh recorder (the resume half of
// checkpoint/resume). Completed traces re-enter through retainLocked:
// retention is a pure function of what completed and a retained set always
// fits its bounds, so each lands back in its class, no loss counter moves,
// and retention after the resume proceeds exactly as it would have in the
// uninterrupted run.
// Load panics if the recorder already holds traces: resuming into a used
// recorder would interleave two ID streams.
func (r *Recorder) Load(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.traces) > 0 || r.startSeq > 0 {
		panic("trace: Load into a non-empty recorder")
	}
	r.startSeq = s.StartSeq
	r.dropped = s.Stats.Dropped
	r.droppedActive = s.Stats.DroppedActive
	r.pinDropped = s.Stats.PinDropped
	ts := slices.Clone(s.Traces)
	freeze(ts)
	for _, t := range ts {
		l := &live{Trace: *t}
		r.traces[l.ID] = l
		if l.Pinned {
			r.pinCount++
		}
		if l.Done {
			r.retainLocked(&l.Trace)
		} else {
			r.active++
		}
	}
}
