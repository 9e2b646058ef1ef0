package crawler

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
)

// TestCheckpointResumeByteIdentical: a crawl interrupted mid-run,
// serialized through JSON, and resumed in fresh objects finishes with the
// same stats, corpora, metric snapshot, and exported traces as the
// uninterrupted crawl.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPages = 250
	seedsOf := func(p *pipeline) []string { return defaultSeeds(t, p) }
	traceCfg := trace.DefaultConfig(9)

	// Uninterrupted reference run over a faulty web (retry and breaker
	// state must survive the checkpoint).
	p1 := chaosPipeline(t, 50, chaosWeb)
	refRec := trace.NewRecorder(traceCfg)
	ref := New(cfg, p1.web, p1.clf).WithTrace(refRec).Run(seedsOf(p1))

	// Interrupted run: a few cycles, checkpoint, JSON round-trip, resume
	// with freshly built (same-seed) web and classifier, finish.
	p2 := chaosPipeline(t, 50, chaosWeb)
	c := New(cfg, p2.web, p2.clf).WithTrace(trace.NewRecorder(traceCfg))
	c.Seed(seedsOf(p2))
	for i := 0; i < 3 && c.Step(); i++ {
	}
	raw, err := c.Checkpoint().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	p3 := chaosPipeline(t, 50, chaosWeb)
	rc, err := Resume(cfg, p3.web, p3.clf, cp)
	if err != nil {
		t.Fatal(err)
	}
	gotRec := trace.NewRecorder(traceCfg)
	rc.WithTrace(gotRec)
	for rc.Step() {
	}
	got := rc.Finish()

	// The trace recorder's exported JSON must be identical between the
	// uninterrupted run and the killed-and-resumed run.
	refTraces, err := refRec.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	gotTraces, err := gotRec.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refTraces, gotTraces) {
		t.Fatalf("trace exports diverge after resume:\n--- uninterrupted\n%s\n--- resumed\n%s",
			refTraces, gotTraces)
	}

	if got.Stats != ref.Stats {
		t.Fatalf("stats diverge:\n%+v\n%+v", got.Stats, ref.Stats)
	}
	if len(got.Relevant) != len(ref.Relevant) || len(got.IrrelevantPages) != len(ref.IrrelevantPages) {
		t.Fatalf("corpus sizes diverge: %d/%d vs %d/%d",
			len(got.Relevant), len(got.IrrelevantPages), len(ref.Relevant), len(ref.IrrelevantPages))
	}
	// Gold is a pointer into the generating web, so compare pages by
	// content, not pointer identity.
	samePage := func(a, b CrawledPage) bool {
		if a.URL != b.URL || a.NetText != b.NetText || a.GoldRelevant != b.GoldRelevant || a.Bytes != b.Bytes {
			return false
		}
		if (a.Gold == nil) != (b.Gold == nil) {
			return false
		}
		return a.Gold == nil || a.Gold.Text == b.Gold.Text
	}
	for i := range ref.Relevant {
		if !samePage(got.Relevant[i], ref.Relevant[i]) {
			t.Fatalf("relevant page %d diverges:\n%+v\n%+v", i, got.Relevant[i], ref.Relevant[i])
		}
	}
	for i := range ref.IrrelevantPages {
		if !samePage(got.IrrelevantPages[i], ref.IrrelevantPages[i]) {
			t.Fatalf("irrelevant page %d diverges", i)
		}
	}
	if gt, rt := got.Metrics.Text(), ref.Metrics.Text(); gt != rt {
		t.Fatalf("metric snapshots diverge:\n%s\nvs\n%s", gt, rt)
	}
	if got.LinkDB.Edges() != ref.LinkDB.Edges() {
		t.Fatal("link graphs diverge")
	}
}

// TestCheckpointSerializationDeterministic: the serialized checkpoint is
// itself byte-identical across same-seed runs.
func TestCheckpointSerializationDeterministic(t *testing.T) {
	snap := func() []byte {
		p := chaosPipeline(t, 40, chaosWeb)
		cfg := DefaultConfig()
		cfg.MaxPages = 150
		c := New(cfg, p.web, p.clf)
		c.Seed(defaultSeeds(t, p))
		for i := 0; i < 2 && c.Step(); i++ {
		}
		raw, err := c.Checkpoint().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := snap(), snap(); !bytes.Equal(a, b) {
		t.Fatal("checkpoint serialization is not deterministic")
	}
}

// TestResumeRejectsWorkerMismatch: resuming under a different worker count
// would silently change the clock schedule — it must error instead.
func TestResumeRejectsWorkerMismatch(t *testing.T) {
	p := chaosPipeline(t, 30, nil)
	cfg := DefaultConfig()
	cfg.MaxPages = 60
	c := New(cfg, p.web, p.clf)
	c.Seed(defaultSeeds(t, p))
	c.Step()
	cp := c.Checkpoint()

	bad := cfg
	bad.Workers = cfg.Workers + 1
	if _, err := Resume(bad, p.web, p.clf, cp); err == nil {
		t.Fatal("worker-count mismatch accepted")
	}
}

// TestResumeRebuildFailureSurfaces: a checkpoint referencing a page the
// supplied web cannot serve (wrong web) fails loudly, not silently.
func TestResumeRebuildFailureSurfaces(t *testing.T) {
	p := chaosPipeline(t, 30, nil)
	cfg := DefaultConfig()
	cfg.MaxPages = 60
	c := New(cfg, p.web, p.clf)
	c.Seed(defaultSeeds(t, p))
	for i := 0; i < 2 && c.Step(); i++ {
	}
	cp := c.Checkpoint()
	if len(cp.RelevantURLs) == 0 {
		t.Skip("no stored pages to corrupt")
	}
	cp.RelevantURLs[0] = "http://no-such-host.example/x"
	if _, err := Resume(cfg, p.web, p.clf, cp); err == nil {
		t.Fatal("unreadable checkpoint page accepted")
	}
}

// TestCheckpointResumeLogExportIdentical: the third pillar rides the
// checkpoint too — a crawl killed mid-run and resumed in fresh objects
// exports the same event-log bytes as the uninterrupted run. The sink is
// snapshotted before checkpoint.saved is emitted, so the announcement
// lives only in the interrupted run's live sink, never in the export the
// resumed run rebuilds from.
func TestCheckpointResumeLogExportIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPages = 250
	seedsOf := func(p *pipeline) []string { return defaultSeeds(t, p) }
	logCfg := evlog.DefaultConfig(9)

	p1 := chaosPipeline(t, 50, chaosWeb)
	refSink := evlog.NewSink(logCfg)
	New(cfg, p1.web, p1.clf).WithLog(refSink).Run(seedsOf(p1))

	p2 := chaosPipeline(t, 50, chaosWeb)
	c := New(cfg, p2.web, p2.clf).WithLog(evlog.NewSink(logCfg))
	c.Seed(seedsOf(p2))
	for i := 0; i < 3 && c.Step(); i++ {
	}
	raw, err := c.Checkpoint().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	p3 := chaosPipeline(t, 50, chaosWeb)
	rc, err := Resume(cfg, p3.web, p3.clf, cp)
	if err != nil {
		t.Fatal(err)
	}
	gotSink := evlog.NewSink(logCfg)
	rc.WithLog(gotSink)
	for rc.Step() {
	}
	rc.Finish()

	refSnap, gotSnap := refSink.Snapshot(), gotSink.Snapshot()
	if a, b := refSnap.Logfmt(), gotSnap.Logfmt(); a != b {
		t.Fatalf("logfmt exports diverge after resume:\n--- uninterrupted\n%s\n--- resumed\n%s", a, b)
	}
	refJSON, err := refSnap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := gotSnap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatal("JSON exports diverge after resume")
	}
	if refSnap.Text() != gotSnap.Text() {
		t.Fatal("text exports diverge after resume")
	}
	// Sanity: the run actually logged something worth comparing.
	if len(refSnap.Records) == 0 || refSnap.Stats.Emitted == 0 {
		t.Fatalf("reference run retained no log records: %+v", refSnap.Stats)
	}
}

// TestCheckpointAfterExhaustionLogExportIdentical: the edge where the
// frontier empties before the checkpoint budget is spent. The pinned
// frontier.exhausted Warn rides the snapshot, and the resumed run's first
// Step re-discovers the empty frontier — it must not emit the record a
// second time, or the export gains a duplicate relative to an
// uninterrupted run.
func TestCheckpointAfterExhaustionLogExportIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPages = 0 // run to frontier exhaustion
	logCfg := evlog.DefaultConfig(9)
	seedsOf := func(p *pipeline) []string { return defaultSeeds(t, p)[:2] }

	p1 := chaosPipeline(t, 12, nil)
	refSink := evlog.NewSink(logCfg)
	ref := New(cfg, p1.web, p1.clf).WithLog(refSink).Run(seedsOf(p1))
	if !ref.Stats.FrontierEmptied {
		t.Fatal("reference crawl did not exhaust its frontier")
	}

	// Interrupted run: step past exhaustion (the checkpoint budget
	// outlives the crawl), checkpoint, resume, finish.
	p2 := chaosPipeline(t, 12, nil)
	c := New(cfg, p2.web, p2.clf).WithLog(evlog.NewSink(logCfg))
	c.Seed(seedsOf(p2))
	for c.Step() {
	}
	raw, err := c.Checkpoint().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	p3 := chaosPipeline(t, 12, nil)
	rc, err := Resume(cfg, p3.web, p3.clf, cp)
	if err != nil {
		t.Fatal(err)
	}
	gotSink := evlog.NewSink(logCfg)
	rc.WithLog(gotSink)
	for rc.Step() {
	}
	rc.Finish()

	refOut, gotOut := refSink.Snapshot().Logfmt(), gotSink.Snapshot().Logfmt()
	if n := strings.Count(gotOut, "msg=frontier.exhausted"); n != 1 {
		t.Errorf("resumed export has %d frontier.exhausted records, want 1", n)
	}
	if refOut != gotOut {
		t.Fatalf("logfmt exports diverge after post-exhaustion resume:\n--- uninterrupted\n%s\n--- resumed\n%s",
			refOut, gotOut)
	}
}

// TestCheckpointFormatPinned pins the on-disk checkpoint format: the
// ordered top-level JSON keys of a checkpoint taken from an
// all-pillars-on chaos crawl. The five pillar keys come from an embedded
// struct, so this is what stops a change to that struct from silently
// renaming or reordering what existing checkpoint files hold.
func TestCheckpointFormatPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPages = 250
	p := chaosPipeline(t, 50, chaosWeb)
	c := New(cfg, p.web, p.clf).
		WithTrace(trace.NewRecorder(trace.DefaultConfig(9))).
		WithLog(evlog.NewSink(evlog.DefaultConfig(9))).
		WithSeries(series.New(series.DefaultConfig())).
		WithProf(prof.New(prof.Config{}))
	c.Seed(defaultSeeds(t, p))
	for i := 0; i < 3 && c.Step(); i++ {
	}
	raw, err := c.Checkpoint().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	want := "stats crawldb linkdb tunnel_depth per_host host_free worker_free breakers " +
		"relevant_urls irrelevant_urls metrics traces logs series profile"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("checkpoint keys:\n got %s\nwant %s", got, want)
	}
}
