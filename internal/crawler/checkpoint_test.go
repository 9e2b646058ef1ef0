package crawler

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/trace"
)

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

// TestAnnouncedCheckpointLeavesTraceExport: an announced checkpoint is a
// run-level event, recorded by the log's checkpoint.saved alone. A crawl
// with only the trace pillar on that checkpoints mid-run exports the same
// trace text as the same crawl without the checkpoint.
func TestAnnouncedCheckpointLeavesTraceExport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPages, cfg.FetchListSize = 120, 30
	crawl := func(checkpointAt int) (string, int) {
		p := newPipeline(t, 30)
		rec := trace.NewRecorder(trace.DefaultConfig(5))
		c := New(cfg, p.web, p.clf).WithTrace(rec)
		c.Seed(defaultSeeds(t, p))
		steps := 0
		for c.Step() {
			if steps++; steps == checkpointAt {
				c.Checkpoint()
			}
		}
		c.Finish()
		return rec.Snapshot().Text(), steps
	}
	plain, _ := crawl(0)
	checkpointed, steps := crawl(2)
	if plain == "" || steps <= 2 {
		t.Fatalf("the crawl ran %d steps, traced %d bytes: no mid-run checkpoint", steps, len(plain))
	}
	if checkpointed != plain {
		t.Errorf("an announced checkpoint changed the trace export:\n--- plain\n%s\n--- checkpointed\n%s",
			tail(plain), tail(checkpointed))
	}
}

// tail is the last few lines of a long export.
func tail(s string) string {
	lines := strings.Split(s, "\n")
	return strings.Join(lines[max(0, len(lines)-4):], "\n")
}

// TestCheckpointFormatPinned pins the on-disk checkpoint format: the
// ordered top-level JSON keys of the identity fixture's checkpoint, cut
// from an all-pillars-on chaos crawl. The five pillar keys come from an
// embedded struct, so this is what stops a change to that struct from
// silently renaming or reordering what existing checkpoint files hold.
func TestCheckpointFormatPinned(t *testing.T) {
	raw, err := fixture{}.run(t).cp.Marshal()
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
