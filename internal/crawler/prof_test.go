package crawler

import (
	"fmt"
	"strings"
	"testing"

	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
)

// runWithProf executes a budgeted chaos crawl with the profiler attached
// and returns the result (Profile is always non-nil).
func runWithProf(t *testing.T, maxPages int) *Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxPages = maxPages
	p := chaosPipeline(t, 50, chaosWeb)
	c := New(cfg, p.web, p.clf).WithProf(prof.New(prof.Config{}))
	res := c.Run(defaultSeeds(t, p))
	if res.Profile == nil {
		t.Fatal("crawl with a profiler produced no profile snapshot")
	}
	return res
}

// callRows renders the deterministic half of a profile: one "scope
// calls" row per scope. crawl.checkpoint is left out — it counts the
// checkpoints this process wrote, which an interrupted run has and an
// uninterrupted one has not.
func callRows(s *prof.Snapshot) string {
	var b strings.Builder
	for _, sd := range s.Scopes {
		if sd.Name != "crawl.checkpoint" {
			fmt.Fprintf(&b, "%s %d\n", sd.Name, sd.Calls)
		}
	}
	return b.String()
}

// TestProfileStageAccounting ties the crawl's bracket counts to the
// metrics pillar — one fetch bracket per attempt, one filter bracket per
// fetched page, one classify bracket per classified page — and checks
// the stages' wall time nests inside the cycle's.
func TestProfileStageAccounting(t *testing.T) {
	res := runWithProf(t, 250)
	s, m := res.Profile, res.Metrics
	for _, tc := range []struct {
		scope string
		want  int64
	}{
		{"crawl.cycle", m.Counter("crawler.cycles")},
		{"crawl.cycle.fetch", m.Counter("crawler.fetch.ok") + m.Counter("crawler.fetch.errors")},
		{"crawl.cycle.filter", m.Counter("crawler.fetch.ok")},
		{"crawl.cycle.classify", m.Counter("crawler.classify.relevant") + m.Counter("crawler.classify.irrelevant")},
	} {
		sd := s.Get(tc.scope)
		if sd == nil || sd.Calls == 0 || sd.WallNs <= 0 {
			t.Fatalf("%s unpopulated: %+v", tc.scope, sd)
		}
		if sd.Calls != tc.want {
			t.Errorf("%s calls = %d, want %d from the metrics pillar", tc.scope, sd.Calls, tc.want)
		}
	}
	stages := s.Get("crawl.cycle.fetch").WallNs + s.Get("crawl.cycle.filter").WallNs + s.Get("crawl.cycle.classify").WallNs
	if cycle := s.Get("crawl.cycle").WallNs; stages > cycle {
		t.Errorf("stage wall sum %d ns exceeds crawl.cycle's %d ns", stages, cycle)
	}
}

// TestProfileExportsDeterministic: identical crawls bracket identically —
// the call rows are the part of the export that is byte-stable.
func TestProfileExportsDeterministic(t *testing.T) {
	a, b := runWithProf(t, 250).Profile, runWithProf(t, 250).Profile
	if callRows(a) != callRows(b) {
		t.Errorf("call rows diverge across identical runs:\n%s\nvs\n%s", callRows(a), callRows(b))
	}
}

// TestProfilingInvisible is the twin discipline of the other pillars:
// attaching the profiler must not change one byte of any other export —
// corpus, metrics, traces, logs, or series.
func TestProfilingInvisible(t *testing.T) {
	run := func(withProf bool) (*Result, string) {
		cfg := DefaultConfig()
		cfg.MaxPages = 200
		p := chaosPipeline(t, 40, chaosWeb)
		rec := trace.NewRecorder(trace.DefaultConfig(7))
		c := New(cfg, p.web, p.clf).
			WithTrace(rec).
			WithLog(evlog.NewSink(evlog.DefaultConfig(7))).
			WithSeries(series.New(series.DefaultConfig()))
		if withProf {
			c.WithProf(prof.New(prof.Config{}))
		}
		return c.Run(defaultSeeds(t, p)), rec.Snapshot().Text()
	}
	plain, plainTraces := run(false)
	profiled, profiledTraces := run(true)
	if plain.Stats != profiled.Stats {
		t.Error("stats diverge when profiling is on")
	}
	if plain.Metrics.Text() != profiled.Metrics.Text() {
		t.Error("metric export diverges when profiling is on")
	}
	if plainTraces != profiledTraces {
		t.Error("trace export diverges when profiling is on")
	}
	if plain.Logs.Logfmt() != profiled.Logs.Logfmt() {
		t.Error("log export diverges when profiling is on")
	}
	if plain.Series.CSV() != profiled.Series.CSV() {
		t.Error("series export diverges when profiling is on")
	}
	if profiled.Profile == nil || plain.Profile != nil {
		t.Error("profile presence does not match the attached profiler")
	}
}

// TestCheckpointResumeProfileExportIdentical: a crawl interrupted after
// a few cycles and resumed in fresh objects ends with the same call
// rows — the accumulators ride the checkpoint.
func TestCheckpointResumeProfileExportIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPages = 250

	p1 := chaosPipeline(t, 50, chaosWeb)
	ref := New(cfg, p1.web, p1.clf).WithProf(prof.New(prof.Config{})).Run(defaultSeeds(t, p1))

	p2 := chaosPipeline(t, 50, chaosWeb)
	c := New(cfg, p2.web, p2.clf).WithProf(prof.New(prof.Config{}))
	c.Seed(defaultSeeds(t, p2))
	for i := 0; i < 3 && c.Step(); i++ {
	}
	raw, err := c.Checkpoint().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"profile"`) {
		t.Fatal("checkpoint JSON carries no profile snapshot")
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
	rc.WithProf(prof.New(prof.Config{})) // WithProf loads the checkpoint's snapshot
	for rc.Step() {
	}
	got := rc.Finish()

	if callRows(ref.Profile) != callRows(got.Profile) {
		t.Fatalf("profile call rows diverge after resume:\n--- uninterrupted\n%s\n--- resumed\n%s",
			callRows(ref.Profile), callRows(got.Profile))
	}
}
