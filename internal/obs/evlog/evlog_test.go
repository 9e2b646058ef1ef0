package evlog

import (
	"encoding/json"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/obs/trace"
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

func TestLevelRoundTrip(t *testing.T) {
	for _, lv := range []Level{Debug, Info, Warn, Error} {
		got, ok := ParseLevel(lv.String())
		if !ok || got != lv {
			t.Errorf("ParseLevel(%q) = %v, %v", lv.String(), got, ok)
		}
		blob, err := json.Marshal(lv)
		if err != nil {
			t.Fatalf("marshal %v: %v", lv, err)
		}
		var back Level
		if err := json.Unmarshal(blob, &back); err != nil || back != lv {
			t.Errorf("level JSON round trip %v -> %s -> %v (%v)", lv, blob, back, err)
		}
	}
	if _, ok := ParseLevel("fatal"); ok {
		t.Error("ParseLevel accepted an unknown level")
	}
	var lv Level
	if err := json.Unmarshal([]byte(`"loud"`), &lv); err == nil {
		t.Error("unmarshal accepted an unknown level")
	}
}

func TestNilAndZeroAreNoOps(t *testing.T) {
	var s *Sink
	lg := s.Logger("nil.sink")
	lg.Info("nothing.happens", 1, trace.String("k", "v"))
	lg.Sample("x", 10).Error("still.nothing", 2)
	if got := s.Snapshot(); len(got.Records) != 0 {
		t.Errorf("nil sink snapshot has %d records", len(got.Records))
	}
	var zero Logger
	if zero.Enabled() {
		t.Error("zero Logger claims to be enabled")
	}
	zero.Warn("noop", 3)
}

func TestEmitRetainAndExport(t *testing.T) {
	s := NewSink(Config{Seed: 1})
	lg := s.Logger("crawler.fetch")
	lg.Info("fetch.ok", 10, trace.Int("bytes", 512))
	lg.Warn("fetch.error", 20, trace.String("cause", "host down"))
	lg.Debug("fetch.start", 5)

	snap := s.Snapshot()
	if len(snap.Records) != 3 {
		t.Fatalf("retained %d records, want 3", len(snap.Records))
	}
	// Canonical order is virtual time, not emission order.
	if snap.Records[0].Msg != "fetch.start" || snap.Records[2].Msg != "fetch.error" {
		t.Errorf("canonical order wrong: %q ... %q", snap.Records[0].Msg, snap.Records[2].Msg)
	}
	logfmt := snap.Logfmt()
	wantLine := `at_ms=20 level=warn component=crawler.fetch msg=fetch.error cause="host down"`
	if !strings.Contains(logfmt, wantLine+"\n") {
		t.Errorf("logfmt missing %q:\n%s", wantLine, logfmt)
	}
	if !strings.Contains(logfmt, "at_ms=10 level=info component=crawler.fetch msg=fetch.ok bytes=512\n") {
		t.Errorf("logfmt missing the info record:\n%s", logfmt)
	}
	if snap.Totals["info crawler.fetch"] != 1 || snap.Totals["warn crawler.fetch"] != 1 || snap.Stats.Emitted != 3 {
		t.Errorf("totals %v, stats %+v", snap.Totals, snap.Stats)
	}
	if got := snap.ComponentTotal(Info, "crawler.fetch"); got != 1 {
		t.Errorf("ComponentTotal = %d, want 1", got)
	}
	if lc := snap.LevelCounts(); lc["debug"] != 1 || lc["info"] != 1 || lc["warn"] != 1 {
		t.Errorf("LevelCounts = %v", lc)
	}
}

func TestSamplingDeterministicAndWarnBypass(t *testing.T) {
	keep := func(seed uint64) []string {
		s := NewSink(Config{Seed: seed})
		lg := s.Logger("crawler.frontier")
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("http://h%d/p", i)
			lg.Sample(key, 8).Debug("frontier.inject", int64(i), trace.String("url", key))
		}
		var kept []string
		for _, r := range s.Snapshot().Records {
			kept = append(kept, r.Attrs[0].Value)
		}
		return kept
	}
	a, b := keep(7), keep(7)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same-seed sampling diverged:\n%v\n%v", a, b)
	}
	if len(a) == 0 || len(a) == 64 {
		t.Errorf("1-in-8 sampling kept %d of 64", len(a))
	}
	if c := keep(8); fmt.Sprint(a) == fmt.Sprint(c) && len(a) == len(c) {
		// Different seeds picking the identical subset is astronomically
		// unlikely; treat it as a seed not reaching the hash.
		t.Errorf("seed change did not move the sample: %v", a)
	}

	s := NewSink(Config{Seed: 7})
	lg := s.Logger("c.x")
	sampled := lg.Sample("always-out-key-1", 1<<30)
	sampled.Debug("shed.one", 1)
	sampled.Warn("kept.warn", 2)
	snap := s.Snapshot()
	if snap.Stats.DroppedSampled != 1 {
		t.Errorf("dropped_sampled = %d, want 1", snap.Stats.DroppedSampled)
	}
	found := false
	for _, r := range snap.Records {
		if r.Msg == "kept.warn" {
			found = true
		}
	}
	if !found {
		t.Error("Warn did not bypass sampling")
	}
}

// TestRetentionPureFunction feeds the same record multiset in two very
// different orders and demands byte-identical exports: retention must be
// a pure function of the stream, not of arrival order.
func TestRetentionPureFunction(t *testing.T) {
	emit := func(order []int) *Snapshot {
		s := NewSink(Config{Seed: 42, TailKeep: 16, ReservoirKeep: 8, PinKeep: 4})
		lg := s.Logger("dataflow.op")
		for _, i := range order {
			if i%17 == 0 {
				lg.Warn("op.quarantine", int64(i), trace.Int("rec", int64(i)))
			} else {
				lg.Debug("op.emit", int64(i), trace.Int("rec", int64(i)))
			}
		}
		return s.Snapshot()
	}
	n := 400
	fwd := make([]int, n)
	perm := make([]int, n)
	for i := range fwd {
		fwd[i] = i
		perm[i] = (i*193 + 71) % n // 193 is coprime with 400
	}
	snap := emit(fwd)
	if a, b := snapJSON(t, snap), snapJSON(t, emit(perm)); a != b {
		t.Errorf("retention depends on arrival order:\n%s\n----\n%s", a, b)
	}
	if len(snap.Records) != 4+16+8 {
		t.Errorf("retained %d records, want pinned 4 + tail 16 + reservoir 8", len(snap.Records))
	}
	if snap.Stats.PinDropped == 0 || snap.Stats.DroppedRetention == 0 {
		t.Errorf("expected retention losses, got %+v", snap.Stats)
	}
}

// TestConcurrentEmissionDeterministic is the -race half of the suite:
// four goroutines hammer the sink, and the export must equal a serial
// emission of the same multiset.
func TestConcurrentEmissionDeterministic(t *testing.T) {
	cfg := Config{Seed: 9, TailKeep: 32, ReservoirKeep: 16, PinKeep: 16}
	serial := NewSink(cfg)
	for w := 0; w < 4; w++ {
		lg := serial.Logger("dataflow.op")
		for i := 0; i < 200; i++ {
			emitOne(lg, w, i)
		}
	}
	conc := NewSink(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lg := conc.Logger("dataflow.op")
			for i := 0; i < 200; i++ {
				emitOne(lg, w, i)
			}
		}(w)
	}
	wg.Wait()
	a, b := snapJSON(t, serial.Snapshot()), snapJSON(t, conc.Snapshot())
	if a != b {
		t.Error("concurrent emission changed the export")
	}
	if lf := conc.Snapshot().Logfmt(); lf != serial.Snapshot().Logfmt() {
		t.Error("concurrent emission changed the logfmt export")
	}
}

func emitOne(lg Logger, w, i int) {
	key := fmt.Sprintf("w%d/r%d", w, i)
	at := int64(i) // logical clock: same timestamps in any interleaving
	switch {
	case i%31 == 0:
		lg.Error("op.panic", at, trace.String("rec", key))
	case i%13 == 0:
		lg.Warn("op.quarantine", at, trace.String("rec", key))
	default:
		lg.Sample(key, 4).Debug("op.emit", at, trace.String("rec", key))
	}
}

// TestSnapshotLoadResumeIdentity checkpoints a sink mid-stream, resumes
// into a fresh sink, finishes the stream on both, and demands identical
// exports — the sink-level half of the crawler checkpoint guarantee.
func TestSnapshotLoadResumeIdentity(t *testing.T) {
	cfg := Config{Seed: 3, TailKeep: 8, ReservoirKeep: 4, PinKeep: 4}
	feed := func(s *Sink, from, to int) {
		lg := s.Logger("crawler.fetch")
		for i := from; i < to; i++ {
			if i%11 == 0 {
				lg.Warn("fetch.error", int64(i*7), trace.Int("attempt", int64(i)))
			} else {
				lg.Info("fetch.ok", int64(i*7), trace.Int("bytes", int64(i)))
			}
		}
	}
	full := NewSink(cfg)
	feed(full, 0, 100)

	first := NewSink(cfg)
	feed(first, 0, 40)
	blob, err := json.Marshal(first.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var mid Snapshot
	if err := json.Unmarshal(blob, &mid); err != nil {
		t.Fatal(err)
	}
	resumed := NewSink(cfg)
	resumed.Load(&mid)
	feed(resumed, 40, 100)

	a, b := snapJSON(t, full.Snapshot()), snapJSON(t, resumed.Snapshot())
	if a != b {
		t.Errorf("resumed export differs from uninterrupted:\n%s\n----\n%s", a, b)
	}
}

// oldSnapshot is a log snapshot as checkpoints wrote it while the sink
// still had per-component token buckets: it carries their state under
// "buckets" and their sheds under stats.dropped_rated; and while records
// still carried a trace ID, which loading ignores.
const oldSnapshot = `{"stats":{"emitted":3,"dropped_sampled":1,"dropped_rated":3},` +
	`"totals":{"info crawler.cycle":2,"warn crawler.fetch":1},` +
	`"buckets":{"crawler.cycle":{"burst":2,"per_sec":1,"tokens":0.40000000000000013,"last_ms":400}},` +
	`"records":[{"at_ms":0,"level":"info","component":"crawler.cycle","msg":"cycle.done","attrs":[{"k":"fetched","v":"0"}]},` +
	`{"at_ms":100,"level":"info","component":"crawler.cycle","msg":"cycle.done","attrs":[{"k":"fetched","v":"1"}]},` +
	`{"at_ms":250,"level":"warn","component":"crawler.fetch","msg":"fetch.error","trace":48879,"attrs":[{"k":"cause","v":"host down"}]}]}`

// TestOldSnapshotResumes: a checkpoint written before the buckets and
// the trace IDs went still loads, and resumes exactly as the same
// snapshot without the bucket keys does.
func TestOldSnapshotResumes(t *testing.T) {
	var raw map[string]any
	if err := json.Unmarshal([]byte(oldSnapshot), &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "buckets")
	delete(raw["stats"].(map[string]any), "dropped_rated")
	stripped, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	load := func(blob []byte) *Snapshot {
		var snap Snapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			t.Fatal(err)
		}
		s := NewSink(Config{Seed: 7, TailKeep: 3, ReservoirKeep: 1, PinKeep: 2})
		s.Load(&snap)
		return s.Snapshot()
	}
	old, cur := load([]byte(oldSnapshot)), load(stripped)
	if len(old.Records) != 3 || old.Logfmt() != cur.Logfmt() {
		t.Errorf("old snapshot resumes to\n%s\nwant\n%s", old.Logfmt(), cur.Logfmt())
	}
	if !maps.Equal(old.Totals, cur.Totals) || old.ComponentTotal(Info, "crawler.cycle") != 2 {
		t.Errorf("old snapshot totals %v, want %v", old.Totals, cur.Totals)
	}
}

func TestLoadIntoUsedSinkPanics(t *testing.T) {
	s := NewSink(Config{Seed: 1})
	s.Logger("c.x").Info("m.sg", 1)
	defer func() {
		if recover() == nil {
			t.Error("Load into a used sink did not panic")
		}
	}()
	s.Load(&Snapshot{})
}

func TestFilter(t *testing.T) {
	s := NewSink(Config{Seed: 1})
	a := s.Logger("crawler.fetch")
	b := s.Logger("dataflow.op")
	a.Info("fetch.ok", 1)
	a.Warn("fetch.error", 2)
	b.Debug("op.emit", 3)
	b.Error("op.panic", 4)
	snap := s.Snapshot()

	if got := snap.Filter(Filter{Component: "crawler"}); len(got.Records) != 2 {
		t.Errorf("component filter kept %d", len(got.Records))
	}
	if got := snap.Filter(Filter{MinLevel: Warn}); len(got.Records) != 2 {
		t.Errorf("level filter kept %d", len(got.Records))
	}
	if got := snap.Filter(Filter{Component: "dataflow", MinLevel: Warn}); len(got.Records) != 1 || got.Records[0].Msg != "op.panic" {
		t.Errorf("component+level filter kept %v", got.Records)
	}
	if got := snap.Filter(Filter{}); len(got.Records) != 4 {
		t.Errorf("zero filter kept %d", len(got.Records))
	}
}
