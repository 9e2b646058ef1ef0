package trace

import (
	"slices"
	"sort"
	"testing"

	"webtextie/internal/obs"
)

// refRecorder is the recorder as it stood before traces were started in
// one object and snapshotted in blocks: every span its own allocation,
// found through a per-trace span-index map, and every Snapshot, Merge and
// Load a deep copy, trace by trace and span by span. It is moved here
// single-threaded (no mutex) as the oracle the Recorder is held to
// (FuzzRecorderMatchesReference).
type refRecorder struct {
	cfg Config

	startSeq uint64
	traces   map[TraceID]*refTrace
	active   int
	pinCount int

	tail      *obs.Keeper[kept]
	reservoir *obs.Keeper[kept]

	dropped, droppedActive, pinDropped uint64
}

// refTrace is a trace with the span-index map the Recorder dropped.
type refTrace struct {
	Trace
	spanIdx map[SpanID]*SpanData
}

func (t *refTrace) span(id SpanID) *SpanData {
	if t.spanIdx == nil {
		t.spanIdx = make(map[SpanID]*SpanData, len(t.Spans))
		for _, s := range t.Spans {
			t.spanIdx[s.ID] = s
		}
	}
	return t.spanIdx[id]
}

func (t *refTrace) addSpan(s *SpanData) {
	t.span(0) // materialize the index
	t.Spans = append(t.Spans, s)
	t.spanIdx[s.ID] = s
}

func newRefRecorder(cfg Config) *refRecorder {
	cfg = NewRecorder(cfg).cfg
	return &refRecorder{
		cfg:       cfg,
		traces:    map[TraceID]*refTrace{},
		tail:      obs.NewKeeper(cfg.TailKeep, newestFirst),
		reservoir: obs.NewKeeper(cfg.ReservoirKeep, byPriority),
	}
}

// refContext is the reference's Context.
type refContext struct {
	r     *refRecorder
	Trace TraceID
	Span  SpanID
}

func (r *refRecorder) Start(name, key string, atMs int64, attrs ...Attr) refContext {
	if r.active >= r.cfg.MaxActive {
		r.droppedActive++
		return refContext{}
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
	t := &refTrace{Trace: Trace{ID: id, Key: key, StartIndex: idx, StartMs: atMs, EndMs: atMs}}
	t.addSpan(root)
	r.traces[id] = t
	r.active++
	return refContext{r: r, Trace: id, Span: root.ID}
}

func (c refContext) lockedSpan() (*refTrace, *SpanData) {
	t := c.r.traces[c.Trace]
	if t == nil {
		return nil, nil
	}
	return t, t.span(c.Span)
}

func (c refContext) StartSpan(name string, atMs int64, attrs ...Attr) refContext {
	if c.r == nil {
		return c
	}
	t, _ := c.lockedSpan()
	if t == nil || t.Done {
		return refContext{}
	}
	return c.startSpanLocked(t, name, uint64(len(t.Spans)), atMs, attrs)
}

func (c refContext) StartSpanKeyed(name string, slot uint64, atMs int64, attrs ...Attr) refContext {
	if c.r == nil {
		return c
	}
	t, _ := c.lockedSpan()
	if t == nil || t.Done {
		return refContext{}
	}
	return c.startSpanLocked(t, name, slot, atMs, attrs)
}

func (c refContext) startSpanLocked(t *refTrace, name string, slot uint64, atMs int64, attrs []Attr) refContext {
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
	return refContext{r: c.r, Trace: c.Trace, Span: sp.ID}
}

func (c refContext) Event(name string, atMs int64, attrs ...Attr) {
	if c.r == nil {
		return
	}
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

func (c refContext) End(atMs int64) {
	if c.r == nil {
		return
	}
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

func (c refContext) Error(class string, atMs int64, attrs ...Attr) {
	if c.r == nil {
		return
	}
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

func (r *refRecorder) pinLocked(t *refTrace) {
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

func (c refContext) Finish(atMs int64) {
	if c.r == nil {
		return
	}
	t := c.r.traces[c.Trace]
	if t == nil || t.Done {
		return
	}
	t.Done = true
	if atMs > t.EndMs {
		t.EndMs = atMs
	}
	if sp := t.span(c.Span); sp != nil && t.EndMs > sp.EndMs {
		sp.EndMs = t.EndMs
	}
	c.r.active--
	c.r.retainLocked(t)
}

func (r *refRecorder) retainLocked(t *refTrace) {
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

func (r *refRecorder) Snapshot() *Snapshot {
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
		s.Traces = append(s.Traces, refCopyTrace(&t.Trace))
	}
	sort.Slice(s.Traces, func(i, j int) bool {
		return s.Traces[i].StartIndex < s.Traces[j].StartIndex
	})
	return s
}

// refCopyTrace deep-copies a trace with spans in canonical order.
func refCopyTrace(t *Trace) *Trace {
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

func (r *refRecorder) Load(s *Snapshot) {
	if len(r.traces) > 0 || r.startSeq > 0 {
		panic("trace: Load into a non-empty recorder")
	}
	r.startSeq = s.StartSeq
	r.dropped = s.Stats.Dropped
	r.droppedActive = s.Stats.DroppedActive
	r.pinDropped = s.Stats.PinDropped
	for _, t := range s.Traces {
		cp := &refTrace{Trace: *refCopyTrace(t)}
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

func refMerge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{Traces: []*Trace{}}
	var base uint64
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, t := range s.Traces {
			cp := refCopyTrace(t)
			cp.StartIndex += base
			out.Traces = append(out.Traces, cp)
		}
		base += s.StartSeq
		out.Stats.Dropped += s.Stats.Dropped
		out.Stats.DroppedActive += s.Stats.DroppedActive
		out.Stats.PinDropped += s.Stats.PinDropped
	}
	out.StartSeq = base
	return out
}

// opReader hands out a fuzz input's bytes, then zeros.
type opReader []byte

func (o *opReader) next() int {
	if len(*o) == 0 {
		return 0
	}
	b := (*o)[0]
	*o = (*o)[1:]
	return int(b)
}

func (o *opReader) pick(from []string) string { return from[o.next()%len(from)] }

// handle is a span both implementations hold, by the IDs they minted.
type handle struct {
	trace TraceID
	span  SpanID
}

// recorderPair is one Recorder and its reference, driven in lockstep.
type recorderPair struct {
	rec *Recorder
	ref *refRecorder
}

// checkSameSnapshot fails unless two snapshots render the same JSON and
// text, and returns the JSON.
func checkSameSnapshot(t *testing.T, what string, got, want *Snapshot) string {
	t.Helper()
	g, w := snapJSON(t, got), snapJSON(t, want)
	if g != w {
		t.Fatalf("%s: JSON differs from the reference:\n%s\n----\n%s", what, g, w)
	}
	if gt, wt := got.Text(), want.Text(); gt != wt {
		t.Fatalf("%s: text differs from the reference:\n%s----\n%s", what, gt, wt)
	}
	return g
}

// runRecorderOps decodes ops into calls on three recorder pairs with
// small bounds — Start, StartSpan, StartSpanKeyed, Event, Error, End,
// Finish, Snapshot, a Merge of 1–3 pairs' snapshots, and a Load
// of one pair into fresh recorders — comparing the implementations after
// every snapshot. Attr lists run 0–6 long, so the inline buffer both
// fills and overflows, and the caller's slice is rewritten after each
// call. At the end every snapshot the Recorder handed out must still
// render the JSON it had when it was taken. Inputs past 4 KB are cut.
func runRecorderOps(t *testing.T, ops []byte) {
	o := opReader(ops[:min(len(ops), 4096)])
	var pairs [3]recorderPair
	cfgs := [3]Config{}
	for i := range pairs {
		cfgs[i] = Config{Seed: uint64(i + 1), HeadKeep: 1 + o.next()%3, TailKeep: 1 + o.next()%4,
			ReservoirKeep: 1 + o.next()%3, PinLimit: 1 + o.next()%3, MaxActive: 2 + o.next()%6}
		pairs[i] = recorderPair{NewRecorder(cfgs[i]), newRefRecorder(cfgs[i])}
	}
	var handles [3][]handle
	type taken struct {
		snap *Snapshot
		json string
	}
	var snaps []taken
	scratch := make([]Attr, 6)
	attrs := func() []Attr {
		a := scratch[:o.next()%7]
		for i := range a {
			v := o.next()
			a[i] = Int([]string{"host", "depth", "attempt", "bytes", "op", "cause"}[v%6], int64(v))
		}
		return a
	}
	// rewrite clobbers the caller's slice, as a call site reusing it would.
	rewrite := func() {
		for i := range scratch {
			scratch[i] = String("rewritten", "x")
		}
	}
	names := []string{"crawler.url", "crawler.fetch.attempt", "dataflow.op.a", "dataflow.op.b"}
	keys := []string{"http://h0/a", "http://h1/b", "rec-0", "rec-1"}
	classes := []string{"breaker_open", "quarantine", "panic", "retry_exhausted"}
	snapshotBoth := func(p recorderPair) (*Snapshot, *Snapshot) {
		got, want := p.rec.Snapshot(), p.ref.Snapshot()
		snaps = append(snaps, taken{got, checkSameSnapshot(t, "snapshot", got, want)})
		return got, want
	}
	for len(o) > 0 {
		// Start and Finish come more often than the rest, so that the
		// small bounds fill and retention evicts.
		op, k := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 0, 6, 6}[o.next()%15], o.next()%3
		p := &pairs[k]
		at := int64(o.next() % 32)
		var h handle
		if hs := handles[k]; len(hs) > 0 {
			h = hs[len(hs)-1-o.next()%min(len(hs), 6)] // mostly open traces
		}
		c, rc := Context{r: p.rec, Trace: h.trace, Span: h.span}, refContext{r: p.ref, Trace: h.trace, Span: h.span}
		if h.trace == 0 {
			c, rc = Context{}, refContext{}
		}
		var nc Context
		var nrc refContext
		switch op {
		case 0:
			name, key, a := o.pick(names), o.pick(keys), attrs()
			nc, nrc = p.rec.Start(name, key, at, a...), p.ref.Start(name, key, at, a...)
		case 1:
			name, a := o.pick(names), attrs()
			nc, nrc = c.StartSpan(name, at, a...), rc.StartSpan(name, at, a...)
		case 2:
			// Slots never repeat: a span ID duplicated at every level of a
			// chain doubles the text export per level.
			name, slot, a := o.pick(names), uint64(o.next()%4)|uint64(len(handles[k]))<<8, attrs()
			nc, nrc = c.StartSpanKeyed(name, slot, at, a...), rc.StartSpanKeyed(name, slot, at, a...)
		case 3:
			name, a := o.pick(names), attrs()
			c.Event(name, at, a...)
			rc.Event(name, at, a...)
		case 4:
			class, a := o.pick(classes), attrs()
			c.Error(class, at, a...)
			rc.Error(class, at, a...)
		case 5:
			c.End(at)
			rc.End(at)
		case 6:
			c.Finish(at)
			rc.Finish(at)
		case 7:
			snapshotBoth(*p)
		case 8:
			var got, want []*Snapshot
			for i := range k + 1 {
				g, w := snapshotBoth(pairs[i])
				got, want = append(got, g), append(want, w)
			}
			checkSameSnapshot(t, "merge", Merge(got...), refMerge(want...))
		case 9:
			got, want := snapshotBoth(*p)
			*p = recorderPair{NewRecorder(cfgs[k]), newRefRecorder(cfgs[k])}
			p.rec.Load(got)
			p.ref.Load(want)
		}
		rewrite()
		if nc.Trace != nrc.Trace || nc.Span != nrc.Span || nc.Active() != (nrc.r != nil) {
			t.Fatalf("op %d minted %+v, reference %+v", op, nc, nrc)
		}
		if nc.Active() {
			handles[k] = append(handles[k], handle{nc.Trace, nc.Span})
		}
	}
	for _, p := range pairs {
		snapshotBoth(p)
	}
	for i, s := range snaps {
		if got := snapJSON(t, s.snap); got != s.json {
			t.Fatalf("snapshot %d changed after it was taken:\n%s\n----\n%s", i, got, s.json)
		}
	}
}

// FuzzRecorderMatchesReference holds the Recorder — one allocation per
// Start, no span-index map, block snapshots sharing attrs and events —
// to the predecessor it replaced, over fuzzer-chosen call sequences.
func FuzzRecorderMatchesReference(f *testing.F) {
	// Seeds from a fixed LCG: long enough to start, span, error and
	// evict across all three pairs, merge and load.
	x := uint32(1)
	for _, n := range []int{16, 64, 256, 1024, 2048} {
		ops := make([]byte, n)
		for i := range ops {
			x = x*1664525 + 1013904223
			ops[i] = byte(x >> 24)
		}
		f.Add(ops)
	}
	f.Fuzz(runRecorderOps)
}
