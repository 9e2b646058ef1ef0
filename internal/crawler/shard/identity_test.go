package shard

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"webtextie/internal/crawler"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
)

// The fleet's determinism identities, each asserted once over every byte
// it publishes: DoP 1 vs 2 vs 4, a rerun, a fleet killed at a round
// barrier and resumed from its JSON at another DoP, and the pillars'
// invisibility. The fixture is a 4-shard chaos crawl (retries, backoff
// and breakers all fire, and their state crosses the cut) with all five
// pillars on.

// corpusManifest renders the merged corpora as one canonical line per
// page — URL, raw size, gold label, and an FNV-1a digest of the extracted
// net text — relevant pages first, each group URL-sorted. Two crawls
// stored identical corpora iff their manifests are byte-identical; the
// determinism and checkpoint suites compare this form.
//
// A degraded run appends one `deg` footer line per fenced partition, so
// a manifest consumer cannot mistake a corpus with known coverage holes
// for a complete one. Healthy runs emit no footer, keeping the form
// byte-compatible with every pre-supervision manifest.
func corpusManifest(res *Result) string {
	var b strings.Builder
	render := func(class string, pages []crawler.CrawledPage) {
		for _, p := range pages {
			h := fnv.New64a()
			h.Write([]byte(p.NetText))
			fmt.Fprintf(&b, "%s %s bytes=%d gold=%t text=%016x\n",
				class, p.URL, p.Bytes, p.GoldRelevant, h.Sum64())
		}
	}
	render("rel", res.Relevant)
	render("irr", res.IrrelevantPages)
	shards := len(res.PerShard)
	for _, d := range res.Degraded {
		fmt.Fprintf(&b, "deg shard=%d/%d fenced_round=%d pending_lost=%d mail_lost=%d\n",
			d.Shard, shards, d.FencedAtRound, d.PendingLost, d.MailLost)
	}
	return b.String()
}

// exports maps each byte surface of a run to its rendering. A surface a
// run did not produce, because its pillar was off, is absent and
// compares as empty.
type exports map[string]string

// surfaces is the order diffExports walks.
var surfaces = []string{"corpus", "stats", "metrics",
	"trace", "trace-json", "log", "log-json",
	"series", "series-json", "series-text", "profile"}

// exportsOf renders a fleet's result whole: corpus manifest, stats and
// rounds, and every pillar's export plus its whole snapshot as JSON (any
// byte another rendering could show is a function of it). Profiles render
// as call rows only, since wall time is a measurement.
func exportsOf(t testing.TB, res *Result) exports {
	t.Helper()
	ex := exports{
		"corpus":  corpusManifest(res),
		"stats":   fmt.Sprintf("%+v rounds=%d stopped=%t", res.Stats, res.Rounds, res.Stopped),
		"metrics": res.Metrics.Text(),
	}
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
		var rows strings.Builder
		for _, sd := range res.Profile.Scopes {
			// crawl.checkpoint counts the checkpoints this process wrote,
			// which an interrupted run has and an uninterrupted one has not.
			if sd.Name != "crawl.checkpoint" {
				fmt.Fprintf(&rows, "%s %d\n", sd.Name, sd.Calls)
			}
		}
		ex["profile"] = rows.String()
	}
	return ex
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
// fleet always keeps.
type pillarSet int

const (
	allPillars pillarSet = iota // trace, log, series and profile
	noPillars
	traceAndLog
)

// fixture is one memoized fleet run: its pillars, DoP and rerun index,
// whether it is killed at the cut and resumed serially from the
// checkpoint's JSON, and whether it is the one-shard fleet.
type fixture struct {
	pillars pillarSet
	dop     int
	rerun   int
	resumed bool
	single  bool
}

// reference is the run every other is compared to.
var reference = fixture{dop: 1}

// identityBudget is the fixture's page budget.
const identityBudget = 600

type fixtureRun struct {
	res *Result
	ex  exports
}

// fixtureRuns memoizes each fixture's run across the tests of one pass,
// so a run two tests need happens once. Under -count=N a run is dropped
// when the test that made it ends, so every pass runs afresh.
var fixtureRuns = map[fixture]fixtureRun{}

// fixtureEnv is the fixture's universe, built once.
var fixtureEnv *env

func (f fixture) config(dop int) Config {
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 4, Parallelism: dop}
	if f.single {
		cfg.Shards = 1
	}
	cfg.Crawl.MaxPages = identityBudget
	cfg.Crawl.FetchListSize = 30 // many rounds, three of them before the cut
	return cfg
}

func (f fixture) attach(r *Runner) {
	if f.pillars != noPillars {
		r.WithTrace(trace.DefaultConfig(7)).WithLog(evlog.DefaultConfig(7))
	}
	if f.pillars == allPillars {
		// A ring shorter than the rounds before the cut, so eviction is
		// in play across the checkpoint.
		r.WithSeries(series.Config{RawCap: 2}).WithProf(prof.Config{})
	}
}

// run crawls the fixture once per pass: 8 fleet crawls serve every
// identity below.
func (f fixture) run(t *testing.T) fixtureRun {
	t.Helper()
	if fr, ok := fixtureRuns[f]; ok {
		return fr
	}
	if fixtureEnv == nil {
		fixtureEnv = newEnv(t, 80, chaosWeb)
	}
	e := fixtureEnv
	r, err := New(f.config(f.dop), e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	f.attach(r)
	if f.resumed {
		r = killAndResume(t, e, r, f.config(1))
		f.attach(r)
	} else {
		r.Seed(e.seeds)
	}
	for r.Round() {
	}
	fr := fixtureRun{res: r.Finish()}
	fr.ex = exportsOf(t, fr.res)
	if f == reference {
		checkReference(t, fr)
	}
	fixtureRuns[f] = fr
	if flag.Lookup("test.count").Value.String() != "1" {
		t.Cleanup(func() { delete(fixtureRuns, f) })
	}
	return fr
}

// killAndResume runs the fleet three rounds, checkpoints it, and returns
// a fleet resumed in fresh objects under cfg from the checkpoint's JSON.
func killAndResume(t *testing.T, e *env, r *Runner, cfg Config) *Runner {
	t.Helper()
	r.Seed(e.seeds)
	for i := 0; i < 3; i++ {
		if !r.Round() {
			t.Fatalf("fleet finished in %d rounds — too small to interrupt", i)
		}
	}
	cp, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if cp, err = UnmarshalCheckpoint(raw); err != nil {
		t.Fatal(err)
	}
	evicted := false
	for _, sd := range cp.Series.Series {
		evicted = evicted || sd.Total > int64(len(sd.Points))
	}
	if !evicted {
		t.Fatal("no series ring has wrapped at the cut; eviction across resume is untested")
	}
	rr, err := Resume(cfg, e.newWeb, e.clf, cp)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// checkReference asserts that the reference fleet exercises what the
// identities are about: it spent its budget with faults firing, every
// pillar exported something, the fleet series hold one sample per round
// with the last at the makespan, and the merged fetch brackets equal the
// fleet's fetch attempts.
func checkReference(t *testing.T, fr fixtureRun) {
	t.Helper()
	ref := fr.res
	for _, name := range surfaces {
		if fr.ex[name] == "" {
			t.Errorf("reference run exported no %s", name)
		}
	}
	if ref.Stats.Fetched < identityBudget || ref.Stats.Retries == 0 {
		t.Errorf("reference run fetched %d pages with %d retries, want the full %d budget under faults",
			ref.Stats.Fetched, ref.Stats.Retries, identityBudget)
	}
	fetchOK := ref.Series.Get("crawler.fetch.ok")
	if fetchOK == nil || int(fetchOK.Total) != ref.Rounds {
		t.Errorf("fleet crawler.fetch.ok series %+v, want one sample per round (%d)", fetchOK, ref.Rounds)
	} else if last, _ := fetchOK.Last(); last.AtMs != ref.Stats.VirtualMs {
		t.Errorf("last sample at %v, want the fleet makespan %d", last, ref.Stats.VirtualMs)
	}
	if ref.Series.Get("fleet.rounds") == nil || ref.Series.Get("crawler.harvest.rate.docs") == nil {
		t.Error("derived fleet series missing")
	}
	m := ref.Metrics
	if fetch := ref.Profile.Get("crawl.cycle.fetch"); fetch == nil ||
		fetch.Calls != m.Counter("crawler.fetch.ok")+m.Counter("crawler.fetch.errors") {
		t.Errorf("merged fetch scope = %+v, want one call per fleet fetch attempt", fetch)
	}
}

// TestFleetIdentity is every determinism identity of the shard fleet.
func TestFleetIdentity(t *testing.T) {
	t.Run("dop", dopIdentity)
	t.Run("rerun", rerunIdentity)
	t.Run("resume", resumeIdentity)
	t.Run("invisible", invisibility)
}

// dopIdentity: for a fixed shard count the degree of parallelism is
// invisible — DoP 1, 2 and 4 export the same bytes, virtual makespan
// included. What sharding buys is stated on the virtual clock too: on
// the same page budget, four shards reach at least twice the single
// shard's vdocs/s (Fetched per VirtualMs — the budget is enforced at
// round barriers, so the two fleets overshoot it by different amounts
// and the bare clocks do not compare).
func dopIdentity(t *testing.T) {
	ref := reference.run(t)
	for _, dop := range []int{2, 4} {
		diffExports(t, fmt.Sprintf("DoP %d", dop), ref.ex, fixture{dop: dop}.run(t).ex)
	}
	single := fixture{pillars: noPillars, dop: 1, single: true}.run(t).res
	if single.Stats.Fetched < identityBudget {
		t.Fatalf("1-shard run fetched %d pages, want the full %d budget", single.Stats.Fetched, identityBudget)
	}
	if fleet := ref.res.Stats; int64(fleet.Fetched)*single.Stats.VirtualMs < 2*int64(single.Stats.Fetched)*fleet.VirtualMs {
		t.Errorf("4 shards fetched %d pages in %d virtual ms, 1 shard %d in %d: want at least twice the vdocs/s",
			fleet.Fetched, fleet.VirtualMs, single.Stats.Fetched, single.Stats.VirtualMs)
	}
}

// rerunIdentity: repeating the identical fleet is byte-stable (no hidden
// global state leaks between fleets).
func rerunIdentity(t *testing.T) {
	diffExports(t, "rerun", fixture{dop: 4}.run(t).ex, fixture{dop: 4, rerun: 1}.run(t).ex)
}

// resumeIdentity: a DoP-4 fleet killed at a round barrier, its series
// rings already wrapped, and resumed serially from the checkpoint's JSON
// in fresh objects finishes with the uninterrupted fleet's bytes — each
// shard's retry, breaker and pillar state rides its embedded crawler
// checkpoint, the fleet series the manifest.
func resumeIdentity(t *testing.T) {
	diffExports(t, "resumed", reference.run(t).ex, fixture{dop: 4, resumed: true}.run(t).ex)
}

// invisibility: attaching pillars changes no other export. With every
// pillar but metrics off, corpus, stats and metrics stand; with trace
// and log only, their exports stand too.
func invisibility(t *testing.T) {
	ref := reference.run(t).ex
	diffExports(t, "pillars off", ref.without("trace", "log", "series", "profile"),
		fixture{pillars: noPillars, dop: 1}.run(t).ex)
	diffExports(t, "trace+log only", ref.without("series", "profile"),
		fixture{pillars: traceAndLog, dop: 1}.run(t).ex)
}

// The per-pillar identity tests TestFleetIdentity replaced keep their
// names, each running the axis that now covers it, so a -run pattern or
// a document naming one still selects its assertion.

func TestShardedCrawlDeterministicAcrossDoP(t *testing.T)      { dopIdentity(t) }
func TestChaosShardedCrawlDeterministicAcrossDoP(t *testing.T) { dopIdentity(t) }
func TestFleetSeriesDeterministicAcrossDoP(t *testing.T)       { dopIdentity(t) }
func TestFleetProfileDeterministicAcrossDoP(t *testing.T)      { dopIdentity(t) }
func TestShardedCrawlDeterministicAcrossRuns(t *testing.T)     { rerunIdentity(t) }
func TestFleetSeriesDeterministicAcrossRuns(t *testing.T)      { rerunIdentity(t) }
func TestShardCheckpointResumeByteIdentical(t *testing.T)      { resumeIdentity(t) }
func TestShardResumeWithDifferentParallelism(t *testing.T)     { resumeIdentity(t) }
func TestFleetSeriesIdenticalAfterResume(t *testing.T)         { resumeIdentity(t) }
func TestFleetProfileIdenticalAfterResume(t *testing.T)        { resumeIdentity(t) }
func TestFleetSeriesSamplingInvisible(t *testing.T)            { invisibility(t) }
func TestFleetProfilingInvisible(t *testing.T)                 { invisibility(t) }
