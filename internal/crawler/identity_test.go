package crawler

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
)

// The crawler's determinism identities, each asserted once over every
// byte it publishes: a rerun, a crawl killed at a checkpoint and resumed
// from its JSON in fresh objects, and the pillars' invisibility. The
// fixture is a chaos crawl (retries, backoff and breakers all fire, and
// their state crosses the cut) with all five pillars on.

// exports maps each byte surface of a run to its rendering. A surface a
// run did not produce, because its pillar was off, is absent and
// compares as empty.
type exports map[string]string

// surfaces is the order diffExports walks.
var surfaces = []string{"corpus", "stats", "metrics",
	"trace", "trace-json", "log", "log-json",
	"series", "series-json", "series-text", "profile", "checkpoint"}

// exportsOf renders a crawl whole: its corpus manifest (link count, then
// one line per stored page with a digest of its net and gold text), its
// stats, every pillar's export plus its whole snapshot as JSON (any byte
// another rendering could show is a function of it), and the checkpoint
// frozen at the cut. Profiles render as call rows only, since wall time is a
// measurement.
func exportsOf(t testing.TB, res *Result, cp *Checkpoint) exports {
	t.Helper()
	var corpus strings.Builder
	fmt.Fprintf(&corpus, "links=%d\n", res.LinkDB.Edges())
	for _, pages := range [][]CrawledPage{res.Relevant, res.IrrelevantPages} {
		for _, p := range pages {
			h := fnv.New64a()
			h.Write([]byte(p.NetText))
			if p.Gold != nil {
				h.Write([]byte("\x00" + p.Gold.Text))
			}
			fmt.Fprintf(&corpus, "%s bytes=%d gold=%t text=%016x\n", p.URL, p.Bytes, p.GoldRelevant, h.Sum64())
		}
		corpus.WriteString("--\n")
	}
	ex := exports{"corpus": corpus.String(), "stats": fmt.Sprintf("%+v", res.Stats), "metrics": res.Metrics.Text()}
	str := func(b []byte, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if s := res.Traces; s != nil {
		ex["trace"], ex["trace-json"] = s.Text(), str(json.Marshal(s))
	}
	if s := res.Logs; s != nil {
		ex["log"], ex["log-json"] = s.Logfmt(), str(json.Marshal(s))
	}
	if s := res.Series; s != nil {
		ex["series"], ex["series-json"], ex["series-text"] = s.CSV(), str(json.Marshal(s)), s.Text()
	}
	if res.Profile != nil {
		ex["profile"] = callRows(res.Profile)
	}
	if cp != nil {
		frozen := *cp
		frozen.Profile = nil
		ex["checkpoint"] = str(frozen.Marshal()) + callRows(cp.Profile)
	}
	return ex
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

// without is what a run with some pillars off must export: ex less every
// surface whose name starts with one of prefixes.
func (ex exports) without(prefixes ...string) exports {
	out := exports{}
	for name, text := range ex {
		if !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) }) {
			out[name] = text
		}
	}
	return out
}

// diffExports names the first surface on which got differs from want,
// and the first byte at which it does.
func diffExports(t *testing.T, label string, want, got exports) {
	t.Helper()
	for _, name := range surfaces {
		w, g := want[name], got[name]
		if w == g {
			continue
		}
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		clip := func(s string) string { return s[max(i-80, 0):min(i+80, len(s))] }
		t.Errorf("%s: %s differs at byte %d\nwant ...%q...\ngot  ...%q...", label, name, i, clip(w), clip(g))
		return
	}
}

// pillarSet is what a fixture run attaches besides metrics, which a
// crawler always keeps.
type pillarSet int

const (
	allPillars pillarSet = iota // trace, log, series and profile
	noPillars
	noProfiler // trace, log and series
	noTracer   // log, series and profile
)

// fixture is one memoized run: its pillars, its rerun index, and whether
// it is killed mid-cycle after the cut and resumed from the checkpoint's
// JSON.
type fixture struct {
	pillars pillarSet
	rerun   int
	resumed bool
}

// identityCut is the number of cycles before the checkpoint.
const identityCut = 3

type fixtureRun struct {
	res *Result
	cp  *Checkpoint // frozen at the cut; nil unless all pillars are on
	ex  exports
}

// fixtureRuns memoizes each fixture's run across the tests of one pass,
// so a run two tests need happens once. Under -count=N a run is dropped
// when the test that made it ends, so every pass runs afresh.
var fixtureRuns = map[fixture]fixtureRun{}

func (f fixture) attach(c *Crawler, ring series.Config) *Crawler {
	if f.pillars == allPillars || f.pillars == noProfiler {
		c.WithTrace(trace.NewRecorder(trace.DefaultConfig(9)))
	}
	if f.pillars != noPillars {
		c.WithLog(evlog.NewSink(evlog.DefaultConfig(9))).WithSeries(series.New(ring))
	}
	if f.pillars == allPillars || f.pillars == noTracer {
		c.WithProf(prof.New(prof.Config{}))
	}
	return c
}

// run crawls the fixture once per pass. An all-pillars run takes a
// silent checkpoint after every cycle, as a supervisor does at each
// barrier, and keeps the one at the cut; the resumed run is killed there
// instead. The other runs are plain Run calls.
func (f fixture) run(t *testing.T) fixtureRun {
	t.Helper()
	if r, ok := fixtureRuns[f]; ok {
		return r
	}
	cfg := DefaultConfig()
	cfg.MaxPages = 400
	cfg.FetchListSize = 200 // several cycles on each side of the cut
	p := chaosPipeline(t, 50, chaosWeb)
	// A ring shorter than the cycles before the cut, so eviction is in
	// play across the checkpoint.
	c := f.attach(New(cfg, p.web, p.clf), series.Config{RawCap: 2})
	c.Seed(defaultSeeds(t, p))
	var cp *Checkpoint
	for cycle := 1; c.Step(); cycle++ {
		switch {
		case f.pillars != allPillars:
		case cycle == identityCut && f.resumed:
			c, cp = crashAndResume(t, c, cfg)
		case cycle == identityCut:
			cp = c.CheckpointSilent()
		default:
			c.CheckpointSilent()
		}
	}
	r := fixtureRun{res: c.Finish(), cp: cp}
	r.ex = exportsOf(t, r.res, cp)
	if f == (fixture{}) {
		checkReference(t, r)
	}
	fixtureRuns[f] = r
	if flag.Lookup("test.count").Value.String() != "1" {
		t.Cleanup(func() { delete(fixtureRuns, f) })
	}
	return r
}

// crashAndResume announces a checkpoint, as the CLI does, kills the
// crawler with a panic mid-cycle, after its first fetch has already
// mutated crawl state, and resumes from the checkpoint's JSON with a
// freshly built web and classifier.
func crashAndResume(t *testing.T, c *Crawler, cfg Config) (*Crawler, *Checkpoint) {
	t.Helper()
	raw, err := c.Checkpoint().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.p.Log.Snapshot().Logfmt(), "checkpoint.saved") {
		t.Error("announcing Checkpoint left no checkpoint.saved record")
	}
	c.WithStepFault(func() { panic("OOM-killed mid-cycle") })
	crashed := func() (v any) {
		defer func() { v = recover() }()
		c.Step()
		return nil
	}()
	if crashed != "OOM-killed mid-cycle" {
		t.Fatalf("expected the injected panic, got %v", crashed)
	}
	cp, err := UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	p := chaosPipeline(t, 50, chaosWeb)
	rc, err := Resume(cfg, p.web, p.clf, cp)
	if err != nil {
		t.Fatal(err)
	}
	// Load adopts the checkpoint's ring size.
	return fixture{}.attach(rc, series.DefaultConfig()), cp
}

// checkReference asserts that the reference run exercises what the
// identities are about: the cut falls mid-crawl with pages stored, the
// fault machinery fired, every pillar exported something, a series ring
// had wrapped before the cut, and the series hold one sample per cycle
// on the virtual clock.
func checkReference(t *testing.T, r fixtureRun) {
	t.Helper()
	res, m := r.res, r.res.Metrics
	if len(r.cp.RelevantURLs) == 0 || r.cp.Stats.Cycles == res.Stats.Cycles {
		t.Errorf("cut after cycle %d of %d with %d relevant pages stored, want mid-crawl with some",
			r.cp.Stats.Cycles, res.Stats.Cycles, len(r.cp.RelevantURLs))
	}
	if res.Stats.Retries == 0 || m.Counter("crawler.retry.scheduled") == 0 {
		t.Error("no retries scheduled under chaos")
	}
	if m.Counter("crawler.fetch.hostdown") == 0 {
		t.Error("no host-down failures observed under chaos")
	}
	if res.Stats.RateLimited == 0 || m.Counter("crawler.fetch.ratelimited") == 0 {
		t.Error("no rate-limit rejections observed under chaos")
	}
	for _, name := range surfaces {
		if r.ex[name] == "" {
			t.Errorf("reference run exported no %s", name)
		}
	}
	evicted := false
	for _, sd := range r.cp.Series.Series {
		evicted = evicted || sd.Total > int64(len(sd.Points))
	}
	if !evicted {
		t.Error("no series ring has wrapped at the cut; eviction across resume is untested")
	}
	fetchOK := res.Series.Get("crawler.fetch.ok")
	if fetchOK == nil || int(fetchOK.Total) != res.Stats.Cycles {
		t.Fatalf("crawler.fetch.ok series %+v, want one sample per cycle (%d)", fetchOK, res.Stats.Cycles)
	}
	if hr := res.Series.Get("crawler.harvest.rate.docs"); hr == nil {
		t.Error("derived harvest-rate series missing")
	} else if v, _ := hr.Last(); v.V != res.Stats.HarvestRateDocs() {
		t.Errorf("final harvest-rate sample %v != Stats.HarvestRateDocs %v", v.V, res.Stats.HarvestRateDocs())
	}
	for i := 1; i < len(fetchOK.Points); i++ {
		if fetchOK.Points[i].AtMs < fetchOK.Points[i-1].AtMs {
			t.Errorf("series timestamps regress at %d: %v", i, fetchOK.Points[i-1:i+1])
		}
	}
}

// TestCrawlIdentity is every determinism identity of the single crawler.
func TestCrawlIdentity(t *testing.T) {
	t.Run("rerun", rerunIdentity)
	t.Run("resume", resumeIdentity)
	t.Run("invisible", invisibility)
}

// rerunIdentity: a second same-seed crawl exports the same bytes, the
// checkpoint frozen at the cut included.
func rerunIdentity(t *testing.T) {
	diffExports(t, "rerun", fixture{}.run(t).ex, fixture{rerun: 1}.run(t).ex)
}

// resumeIdentity: a crawl killed mid-cycle after the cut and resumed
// from the checkpoint's JSON, with a freshly built web and classifier,
// finishes with the uninterrupted crawl's bytes. Its announced
// checkpoint equals the reference's silent one: the announcement lives
// only in the live recorder and sink, never in the frozen state.
func resumeIdentity(t *testing.T) {
	diffExports(t, "resumed", fixture{}.run(t).ex, fixture{resumed: true}.run(t).ex)
}

// invisibility: attaching pillars, and taking silent checkpoints, changes
// no other export. Against plain runs with every pillar but metrics off,
// corpus, stats and metrics stand; with every pillar but the profiler,
// trace, log and series exports stand too; and with every pillar but the
// tracer, the log, series and profile exports stand — no log record
// depends on whether tracing is on.
func invisibility(t *testing.T) {
	ref := fixture{}.run(t).ex
	diffExports(t, "pillars off", ref.without("trace", "log", "series", "profile", "checkpoint"),
		fixture{pillars: noPillars}.run(t).ex)
	diffExports(t, "profiler off", ref.without("profile", "checkpoint"),
		fixture{pillars: noProfiler}.run(t).ex)
	diffExports(t, "tracer off", ref.without("trace", "checkpoint"),
		fixture{pillars: noTracer}.run(t).ex)
}

// The per-pillar identity tests TestCrawlIdentity replaced keep their
// names, each running the axis that now covers it, so a -run pattern or
// a document naming one still selects its assertion.

func TestCrawlDeterministic(t *testing.T)                     { rerunIdentity(t) }
func TestChaosCrawlDeterministic(t *testing.T)                { rerunIdentity(t) }
func TestChaosTraceDeterministic(t *testing.T)                { rerunIdentity(t) }
func TestMetricsDeterministic(t *testing.T)                   { rerunIdentity(t) }
func TestSeriesExportDeterministic(t *testing.T)              { rerunIdentity(t) }
func TestProfileExportsDeterministic(t *testing.T)            { rerunIdentity(t) }
func TestCheckpointSerializationDeterministic(t *testing.T)   { rerunIdentity(t) }
func TestCheckpointResumeByteIdentical(t *testing.T)          { resumeIdentity(t) }
func TestCheckpointResumeLogExportIdentical(t *testing.T)     { resumeIdentity(t) }
func TestCheckpointResumeProfileExportIdentical(t *testing.T) { resumeIdentity(t) }
func TestCheckpointResumeSeriesExportIdentical(t *testing.T)  { resumeIdentity(t) }
func TestTraceOffCrawlIdentical(t *testing.T)                 { invisibility(t) }
func TestProfilingInvisible(t *testing.T)                     { invisibility(t) }
func TestSeriesSamplingInvisibleToMetrics(t *testing.T)       { invisibility(t) }
func TestCheckpointSilentLeavesNoResidue(t *testing.T)        { invisibility(t) }
func TestStepFaultPanicIsRecoverable(t *testing.T)            { resumeIdentity(t) }
