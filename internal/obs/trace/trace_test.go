package trace

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// snapJSON marshals a snapshot whole: every field a rendering could show.
func snapJSON(t testing.TB, s *Snapshot) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// pinnedOf returns the snapshot's flight-recorder traces.
func pinnedOf(s *Snapshot) []*Trace {
	var out []*Trace
	for _, t := range s.Traces {
		if t.Pinned {
			out = append(out, t)
		}
	}
	return out
}

func TestIDsDeterministicPerSeed(t *testing.T) {
	mint := func(seed uint64) []TraceID {
		r := NewRecorder(Config{Seed: seed})
		var ids []TraceID
		for i := 0; i < 10; i++ {
			tc := r.Start("test.root", fmt.Sprintf("key-%d", i), int64(i))
			ids = append(ids, tc.Trace)
			tc.Finish(int64(i))
		}
		return ids
	}
	a, b := mint(42), mint(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed run minted different IDs at %d: %s vs %s", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Fatalf("minted zero trace ID at %d", i)
		}
	}
	c := mint(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds minted identical ID streams")
	}
}

func TestSpanTreeAndEvents(t *testing.T) {
	r := NewRecorder(Config{Seed: 1})
	tc := r.Start("crawler.url", "http://h0/p0", 0, String("host", "h0"))
	child := tc.StartSpan("crawler.fetch.attempt", 100, Int("attempt", 0))
	child.Event("fetch.error", 350, String("kind", "host_down"))
	child.End(350)
	child2 := tc.StartSpan("crawler.fetch.attempt", 900, Int("attempt", 1))
	child2.Event("fetch.ok", 1100)
	child2.End(1100)
	tc.Finish(1100)

	s := r.Snapshot()
	if len(s.Traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(s.Traces))
	}
	tr := s.Traces[0]
	if len(tr.Spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(tr.Spans))
	}
	root := tr.Spans[0]
	if root.Parent != 0 || root.Name != "crawler.url" {
		t.Fatalf("first span should be root, got %+v", root)
	}
	for _, sp := range tr.Spans[1:] {
		if sp.Parent != root.ID {
			t.Fatalf("child span %s has parent %s, want root %s", sp.Name, sp.Parent, root.ID)
		}
	}
	if tr.EndMs != 1100 {
		t.Fatalf("trace EndMs = %d, want 1100", tr.EndMs)
	}
	if tr.Spans[1].Events[0].Name != "fetch.error" {
		t.Fatalf("unexpected event order: %+v", tr.Spans[1].Events)
	}
}

func TestFinishedTraceIsImmutable(t *testing.T) {
	r := NewRecorder(Config{Seed: 1})
	tc := r.Start("test.root", "k", 0)
	tc.Finish(50)
	before := r.Snapshot()
	tc.Event("late.event", 100)
	tc.Error("late_error", 100)
	tc.End(200)
	if sub := tc.StartSpan("late.span", 100); sub.Active() {
		t.Fatal("StartSpan on a finished trace returned an active context")
	}
	after := r.Snapshot()
	if bj, aj := snapJSON(t, before), snapJSON(t, after); bj != aj {
		t.Fatalf("finished trace mutated:\nbefore:\n%s\nafter:\n%s", bj, aj)
	}
}

// TestSnapshotUnaffectedByLaterEmission: a snapshot shares its attr and
// event slices with the recorder, so emission after it — appends into the
// same attr buffer and event backings, an error class inserted in place,
// spans, ends, finishes and starts that evict — must not show in it.
func TestSnapshotUnaffectedByLaterEmission(t *testing.T) {
	r := NewRecorder(Config{Seed: 1, HeadKeep: 1, TailKeep: 1, ReservoirKeep: 1})
	tc := r.Start("crawler.url", "http://h0/a", 0, String("host", "h0"))
	tc.Event("frontier.inject", 0, Int("depth", 0)) // two attrs of the inline four
	at := tc.StartSpan("crawler.fetch.attempt", 1)
	for i := range 3 { // three events in a backing of four
		at.Event("fetch.retry", int64(2+i))
	}
	ot := r.Start("crawler.url", "http://h0/b", 0)
	for _, class := range []string{"m_class", "n_class", "o_class"} { // three classes in a backing of four
		ot.Error(class, 5)
	}
	snap := r.Snapshot()
	want, wantText := snapJSON(t, snap), snap.Text()

	at.Event("fetch.retry", 6, Int("attempt", 1))
	ot.Error("a_class", 7, String("cause", "sorts first"))
	tc.Event("fetch.ok", 8, Int("bytes", 10))
	tc.StartSpan("crawler.fetch.attempt", 9, Int("attempt", 2)).End(10)
	at.End(11)
	tc.Finish(12)
	for i := range 4 {
		r.Start("crawler.url", "http://h1/"+string(rune('a'+i)), 13, String("host", "h1")).Finish(14)
	}
	if got := snapJSON(t, snap); got != want {
		t.Fatalf("later emission changed the snapshot:\nbefore:\n%s\nafter:\n%s", want, got)
	}
	if got := snap.Text(); got != wantText {
		t.Fatalf("later emission changed the snapshot's text:\nbefore:\n%s\nafter:\n%s", wantText, got)
	}
}

func TestNoopContexts(t *testing.T) {
	var r *Recorder // nil recorder is always-off
	tc := r.Start("x", "k", 0)
	if tc.Active() {
		t.Fatal("nil recorder returned active context")
	}
	// All methods must be safe on the zero Context.
	tc.Event("e", 0)
	tc.End(0)
	tc.Error("c", 0)
	tc.Finish(0)
	if s := r.Snapshot(); len(s.Traces) != 0 {
		t.Fatal("nil recorder snapshot has traces")
	}
	zero := Context{}
	zero.Event("e", 0)
	zero.Finish(0)
	if zero.StartSpan("s", 0).Active() {
		t.Fatal("zero context StartSpan returned active context")
	}
}

// TestRecorderCopiesAttrs: the recorder keeps a copy of the attrs it is
// handed, so a caller that reuses its slice rewrites nothing recorded.
func TestRecorderCopiesAttrs(t *testing.T) {
	r := NewRecorder(Config{Seed: 1})
	attrs := []Attr{String("host", "h0"), Int("n", 1)}
	tc := r.Start("test.root", "k", 0, attrs...)
	sp := tc.StartSpan("test.span", 1, attrs...)
	kp := tc.StartSpanKeyed("test.keyed", 7, 2, attrs...)
	sp.Event("test.event", 3, attrs...)
	kp.End(5)
	sp.End(5)
	tc.Finish(5)
	want := snapJSON(t, r.Snapshot())
	for i := range attrs {
		attrs[i] = String("rewritten", "x")
	}
	if got := snapJSON(t, r.Snapshot()); got != want {
		t.Fatalf("rewriting the caller's attrs changed the recorder:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestDisabledTraceAllocatesNothing: with tracing off, a call site that
// passes attrs costs no allocation — the recorder keeps no reference to
// the caller's slice, so it stays on the caller's stack.
func TestDisabledTraceAllocatesNothing(t *testing.T) {
	var r *Recorder
	var zero Context
	host := "h0"
	allocs := testing.AllocsPerRun(100, func() {
		tc := r.Start("test.root", "k", 0, String("host", host))
		sp := tc.StartSpan("test.span", 1, String("host", host))
		zero.StartSpanKeyed("test.keyed", 7, 2, String("host", host), String("op", "parse"))
		sp.Event("test.event", 3, String("host", host))
		zero.Event("test.event", 3, String("host", host))
		tc.Finish(5)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f times per call site group, want 0", allocs)
	}
}

func TestFlightRecorderPinsSurviveEviction(t *testing.T) {
	cfg := Config{Seed: 7, HeadKeep: 2, TailKeep: 4, ReservoirKeep: 2, PinLimit: 8, MaxActive: 1024}
	r := NewRecorder(cfg)
	var pinned []TraceID
	for i := 0; i < 200; i++ {
		tc := r.Start("test.root", fmt.Sprintf("k%03d", i), int64(i))
		if i == 50 || i == 120 {
			tc.Error("quarantine", int64(i), String("detail", "boom"))
			pinned = append(pinned, tc.Trace)
		}
		tc.Finish(int64(i))
	}
	s := r.Snapshot()
	for _, id := range pinned {
		i := slices.IndexFunc(s.Traces, func(tr *Trace) bool { return tr.ID == id })
		if i < 0 {
			t.Fatalf("pinned trace %s evicted", id)
		}
		if tr := s.Traces[i]; !tr.Pinned || !tr.HasErrClass("quarantine") {
			t.Fatalf("pinned trace lost metadata: %+v", tr)
		}
	}
	// Head traces always retained.
	heads := 0
	for _, tr := range s.Traces {
		if tr.StartIndex < uint64(cfg.HeadKeep) {
			heads++
		}
	}
	if heads != cfg.HeadKeep {
		t.Fatalf("want %d head traces retained, got %d", cfg.HeadKeep, heads)
	}
	// Bounded: head + tail + reservoir + pinned.
	max := cfg.HeadKeep + cfg.TailKeep + cfg.ReservoirKeep + len(pinned)
	if len(s.Traces) > max {
		t.Fatalf("retained %d traces, bound is %d", len(s.Traces), max)
	}
	if s.Stats.Dropped == 0 {
		t.Fatal("expected eviction drops with 200 traces and tiny bounds")
	}
	if got := len(pinnedOf(s)); got != len(pinned) {
		t.Fatalf("pinned traces = %d, want %d", got, len(pinned))
	}
}

func TestPinLimitFallsBackToNormalRetention(t *testing.T) {
	r := NewRecorder(Config{Seed: 1, HeadKeep: 1, TailKeep: 2, ReservoirKeep: 1, PinLimit: 2, MaxActive: 16})
	for i := 0; i < 5; i++ {
		tc := r.Start("test.root", fmt.Sprintf("k%d", i), int64(i))
		tc.Error("panic", int64(i))
		tc.Finish(int64(i))
	}
	s := r.Snapshot()
	if got := len(pinnedOf(s)); got != 2 {
		t.Fatalf("PinLimit=2 but %d pinned", got)
	}
	if s.Stats.PinDropped != 3 {
		t.Fatalf("PinDropped = %d, want 3", s.Stats.PinDropped)
	}
}

func TestMaxActiveRefusesStart(t *testing.T) {
	r := NewRecorder(Config{Seed: 1, MaxActive: 2})
	a := r.Start("test.root", "a", 0)
	b := r.Start("test.root", "b", 0)
	c := r.Start("test.root", "c", 0)
	if !a.Active() || !b.Active() {
		t.Fatal("first two starts should be active")
	}
	if c.Active() {
		t.Fatal("third start should be refused by MaxActive=2")
	}
	a.Finish(1)
	d := r.Start("test.root", "d", 1)
	if !d.Active() {
		t.Fatal("start after a finish should succeed")
	}
	if s := r.Snapshot(); s.Stats.DroppedActive != 1 {
		t.Fatalf("DroppedActive = %d, want 1", s.Stats.DroppedActive)
	}
}

func TestSnapshotLoadRoundTrip(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder(Config{Seed: 11, HeadKeep: 2, TailKeep: 3, ReservoirKeep: 2, PinLimit: 4, MaxActive: 64})
		for i := 0; i < 30; i++ {
			tc := r.Start("test.root", fmt.Sprintf("k%02d", i), int64(i*10))
			sub := tc.StartSpan("test.child", int64(i*10+1), Int("i", int64(i)))
			sub.End(int64(i*10 + 5))
			if i%7 == 0 {
				tc.Error("breaker_open", int64(i*10+6))
			}
			if i < 25 { // leave a few active across the "checkpoint"
				tc.Finish(int64(i*10 + 9))
			}
		}
		return r
	}

	orig := build()
	snap := orig.Snapshot()

	// JSON round-trip the snapshot (what a checkpoint file does).
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	resumed := NewRecorder(Config{Seed: 11, HeadKeep: 2, TailKeep: 3, ReservoirKeep: 2, PinLimit: 4, MaxActive: 64})
	resumed.Load(&back)

	// The resumed recorder must export identically...
	a, b := snap.Text(), resumed.Snapshot().Text()
	if a != b {
		t.Fatalf("resume changed export:\norig:\n%s\nresumed:\n%s", a, b)
	}

	// ...and continue identically: drive both with the same tail workload.
	drive := func(r *Recorder) string {
		// Re-enter the still-active traces by ID and finish them.
		s := r.Snapshot()
		for _, tr := range s.Traces {
			if tr.Done {
				continue
			}
			tc := r.Context(tr.ID)
			tc.Event("resumed.finish", 500)
			tc.Finish(500)
		}
		for i := 30; i < 45; i++ {
			tc := r.Start("test.root", fmt.Sprintf("k%02d", i), int64(i*10))
			tc.Finish(int64(i*10 + 9))
		}
		return r.Snapshot().Text()
	}
	cont := build() // uninterrupted twin
	if got, want := drive(resumed), drive(cont); got != want {
		t.Fatalf("post-resume divergence:\nresumed:\n%s\nuninterrupted:\n%s", got, want)
	}
}

func TestLoadPanicsOnNonEmptyRecorder(t *testing.T) {
	r := NewRecorder(Config{Seed: 1})
	r.Start("test.root", "k", 0).Finish(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Load into used recorder did not panic")
		}
	}()
	r.Load(&Snapshot{})
}

func TestTextExportGolden(t *testing.T) {
	r := NewRecorder(Config{Seed: 99})
	tc := r.Start("crawler.url", "http://h1/p1", 0, String("host", "h1"))
	tc.Event("frontier.inject", 0, Int("depth", 0))
	at := tc.StartSpan("crawler.fetch.attempt", 200, Int("attempt", 0))
	at.Error("breaker_open", 450, String("host", "h1"))
	at.End(450)
	tc.Finish(500)

	got := r.Snapshot().Text()
	want := "" +
		"trace " + tc.Trace.String() + " key=http://h1/p1 [0-500ms] spans=2 err=[breaker_open] pinned\n" +
		"  span crawler.url [0-500ms] host=h1\n" +
		"    @0ms frontier.inject depth=0\n" +
		"    span crawler.fetch.attempt [200-450ms] attempt=0\n" +
		"      @450ms error class=breaker_open host=h1\n"
	if got != want {
		t.Fatalf("text export mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTextPrintsEachSpanOnce: a 40-deep chain whose every span ID is
// held by two spans prints one line per span plus one per event — not a
// subtree per duplicate per level, which grew as 2^depth.
func TestTextPrintsEachSpanOnce(t *testing.T) {
	const depth = 40
	tr := &Trace{Key: "dup", Done: true}
	for level := range depth {
		for range 2 {
			tr.Spans = append(tr.Spans, &SpanData{ID: SpanID(level + 1), Parent: SpanID(level),
				Name: "hop", Events: []Event{{Name: "op.retry"}}})
		}
	}
	text := (&Snapshot{Traces: []*Trace{tr}}).Text()
	if lines := strings.Count(text, "\n"); lines != 1+2*len(tr.Spans) {
		t.Fatalf("%d lines for %d spans with one event each, want %d", lines, len(tr.Spans), 1+2*len(tr.Spans))
	}
	if spans := strings.Count(text, "span hop"); spans != len(tr.Spans) {
		t.Fatalf("%d span lines for %d spans", spans, len(tr.Spans))
	}
}

func TestErrClassCounts(t *testing.T) {
	r := NewRecorder(Config{Seed: 5})
	a := r.Start("crawler.url", "http://alpha/x", 0)
	a.StartSpan("crawler.fetch.attempt", 10).End(20)
	a.Finish(30)
	b := r.Start("dataflow.record", "rec-007", 5)
	b.Error("quarantine", 15)
	b.Finish(25)

	s := r.Snapshot()
	counts := s.ErrClassCounts()
	if counts["quarantine"] != 1 || len(counts) != 1 {
		t.Fatalf("ErrClassCounts = %v", counts)
	}
	if keys := SortedErrClasses(counts); len(keys) != 1 || keys[0] != "quarantine" {
		t.Fatalf("SortedErrClasses = %v", keys)
	}
	if s.Traces[0].HasErrClass("quarantine") || !s.Traces[1].HasErrClass("quarantine") {
		t.Fatalf("HasErrClass disagrees with the recorded classes: %v, %v", s.Traces[0].ErrClasses, s.Traces[1].ErrClasses)
	}
}

func TestTraceName(t *testing.T) {
	if got := TraceName("dataflow.op", "tokenize"); got != "dataflow.op.tokenize" {
		t.Fatalf("TraceName = %q", got)
	}
	if got := TraceName("solo"); got != "solo" {
		t.Fatalf("TraceName single = %q", got)
	}
}
