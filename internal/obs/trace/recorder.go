package trace

import (
	"slices"
	"sort"
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

// Mark is a recorder-level annotation outside any trace (checkpoint
// boundaries, phase transitions), stamped in virtual-clock time. Marks are
// live-debugging state, not replay state: a checkpoint snapshot destined
// for resume clears them (see crawler.Checkpoint), keeping a resumed run's
// export byte-identical to an uninterrupted one.
type Mark struct {
	Name  string `json:"name"`
	AtMs  int64  `json:"at_ms"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Recorder collects traces under a single mutex. All methods are safe for
// concurrent use; a nil *Recorder is a valid always-off recorder.
type Recorder struct {
	mu  sync.Mutex
	cfg Config

	startSeq uint64
	traces   map[TraceID]*Trace
	active   int
	pinCount int

	// tail and reservoir hold the completed, unpinned, non-head traces
	// (head membership is implicit in StartIndex < HeadKeep).
	tail      *obs.Keeper[kept]
	reservoir *obs.Keeper[kept]

	dropped       uint64 // completed traces evicted
	droppedActive uint64 // Start calls refused by MaxActive
	pinDropped    uint64 // error traces not pinned (PinLimit)

	marks []Mark
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
		traces:    map[TraceID]*Trace{},
		tail:      obs.NewKeeper(cfg.TailKeep, newestFirst),
		reservoir: obs.NewKeeper(cfg.ReservoirKeep, byPriority),
	}
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
	root := &SpanData{
		ID:      SpanID(nonZero(obs.FNVMix(uint64(id), 0, 0))),
		Name:    name,
		StartMs: atMs,
		EndMs:   atMs,
		Attrs:   slices.Clone(attrs),
	}
	t := &Trace{ID: id, Key: key, StartIndex: idx, StartMs: atMs, EndMs: atMs}
	t.addSpan(root)
	r.traces[id] = t
	r.active++
	return Context{r: r, Trace: id, Span: root.ID}
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

// Mark records a recorder-level annotation (checkpoint boundary).
func (r *Recorder) Mark(name string, atMs int64, attrs ...Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.marks = append(r.marks, Mark{Name: name, AtMs: atMs, Attrs: slices.Clone(attrs)})
}

// lockedSpan resolves the context's span with the recorder lock held.
func (c Context) lockedSpan() (*Trace, *SpanData) {
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
	t, _ := c.lockedSpan()
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
	t, _ := c.lockedSpan()
	if t == nil || t.Done {
		return Context{}
	}
	return c.startSpanLocked(t, name, slot, atMs, attrs)
}

func (c Context) startSpanLocked(t *Trace, name string, slot uint64, atMs int64, attrs []Attr) Context {
	sp := &SpanData{
		ID:      SpanID(nonZero(obs.FNVMix(uint64(c.Trace), uint64(c.Span), slot, obs.FNVString(name)))),
		Parent:  c.Span,
		Name:    name,
		StartMs: atMs,
		EndMs:   atMs,
		Attrs:   slices.Clone(attrs),
	}
	t.addSpan(sp)
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
	sp.Events = append(sp.Events, Event{Name: name, AtMs: atMs, Attrs: slices.Clone(attrs)})
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
	sp.Events = append(sp.Events, Event{Name: "error", AtMs: atMs,
		Attrs: append([]Attr{{Key: "class", Value: class}}, attrs...)})
	if atMs > t.EndMs {
		t.EndMs = atMs
	}
	t.addErrClass(class)
	c.r.pinLocked(t)
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
	c.r.retainLocked(t)
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

// Snapshot is a deep, consistent copy of the recorder: every retained
// trace (active and completed) in StartIndex order with spans sorted into
// the canonical deterministic order, plus the sequence counters needed to
// continue the ID stream after a resume. It is plain JSON-encodable data.
type Snapshot struct {
	StartSeq uint64        `json:"start_seq"`
	Stats    SnapshotStats `json:"stats,omitempty"`
	Marks    []Mark        `json:"marks,omitempty"`
	Traces   []*Trace      `json:"traces"`
}

// Snapshot freezes the recorder. The copy shares nothing with the live
// recorder.
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
		Marks:  append([]Mark(nil), r.marks...),
		Traces: make([]*Trace, 0, len(r.traces)),
	}
	for _, t := range r.traces {
		s.Traces = append(s.Traces, copyTrace(t))
	}
	sort.Slice(s.Traces, func(i, j int) bool {
		return s.Traces[i].StartIndex < s.Traces[j].StartIndex
	})
	return s
}

// copyTrace deep-copies a trace with spans in canonical order: sorted by
// (StartMs, Parent, ID). Span insertion order can race under concurrent
// emitters; the sort key is made of derived values only, so the canonical
// order is deterministic per seed.
func copyTrace(t *Trace) *Trace {
	out := &Trace{
		ID:         t.ID,
		Key:        t.Key,
		StartIndex: t.StartIndex,
		StartMs:    t.StartMs,
		EndMs:      t.EndMs,
		Done:       t.Done,
		Pinned:     t.Pinned,
		ErrClasses: append([]string(nil), t.ErrClasses...),
		Spans:      make([]*SpanData, len(t.Spans)),
	}
	for i, sp := range t.Spans {
		cp := &SpanData{
			ID:      sp.ID,
			Parent:  sp.Parent,
			Name:    sp.Name,
			StartMs: sp.StartMs,
			EndMs:   sp.EndMs,
			Attrs:   append([]Attr(nil), sp.Attrs...),
			Events:  append([]Event(nil), sp.Events...),
		}
		out.Spans[i] = cp
	}
	sort.Slice(out.Spans, func(i, j int) bool {
		a, b := out.Spans[i], out.Spans[j]
		if a.StartMs != b.StartMs {
			return a.StartMs < b.StartMs
		}
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		return a.ID < b.ID
	})
	return out
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
	r.marks = append([]Mark(nil), s.Marks...)
	for _, t := range s.Traces {
		cp := copyTrace(t)
		r.traces[cp.ID] = cp
		if cp.Pinned {
			r.pinCount++
		}
		if cp.Done {
			r.retainLocked(cp)
		} else {
			r.active++
		}
	}
}
