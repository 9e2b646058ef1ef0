package supervisor

import (
	"fmt"
	"strings"
	"testing"

	"webtextie/internal/classify"
	"webtextie/internal/crawler"
	"webtextie/internal/crawler/shard"
	"webtextie/internal/obs/doctor"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/trace"
	"webtextie/internal/rng"
	"webtextie/internal/seeds"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// env mirrors the shard package's test environment: a web factory (each
// shard owns a private universe), a shared read-only classifier, seeds.
type env struct {
	webCfg synthweb.Config
	clf    *classify.NaiveBayes
	seeds  []string
}

func (e *env) newWeb() *synthweb.Web {
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 500, Drugs: 150, Diseases: 150}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	return synthweb.New(e.webCfg, gen)
}

func newEnv(t testing.TB, hosts int, mutate func(*synthweb.Config)) *env {
	t.Helper()
	e := &env{}
	e.webCfg = synthweb.DefaultConfig()
	e.webCfg.NumHosts = hosts
	if mutate != nil {
		mutate(&e.webCfg)
	}
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 500, Drugs: 150, Diseases: 150}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	e.clf = classify.New()
	r := rng.New(3)
	for i := 0; i < 300; i++ {
		e.clf.Learn(gen.Doc(r, textgen.Medline, fmt.Sprint("m", i)).Text, classify.Relevant)
		e.clf.Learn(gen.Doc(r, textgen.Irrelevant, fmt.Sprint("w", i)).Text, classify.Irrelevant)
	}
	catalog := seeds.BuildCatalog(4, lex, seeds.CatalogSizes{General: 10, Disease: 60, Drug: 40, Gene: 80})
	e.seeds = seeds.Generate(seeds.DefaultEngines(5, e.newWeb()), catalog).SeedURLs
	return e
}

// fleetCfg is the shared fleet shape of this suite: small cycles force a
// multi-round run so there are rounds to crash in.
func fleetCfg(shards, parallelism int) shard.Config {
	cfg := shard.Config{Crawl: crawler.DefaultConfig(), Shards: shards, Parallelism: parallelism}
	cfg.Crawl.MaxPages = 480
	cfg.Crawl.FetchListSize = 40
	return cfg
}

// exports maps each byte surface of a run to its rendering. A surface a
// run did not produce, because its pillar was off, is absent and
// compares as empty.
type exports map[string]string

// surfaces is the order diffExports walks.
var surfaces = []string{"corpus", "stats", "metrics", "trace", "log", "series", "profile"}

// corpusOf renders the merged corpora and the fenced partitions, one
// line per page in merge order.
func corpusOf(res *shard.Result) string {
	var b strings.Builder
	for class, pages := range [][]crawler.CrawledPage{res.Relevant, res.IrrelevantPages} {
		for _, p := range pages {
			fmt.Fprintf(&b, "%d %s bytes=%d gold=%t text=%q\n", class, p.URL, p.Bytes, p.GoldRelevant, p.NetText)
		}
	}
	for _, d := range res.Degraded {
		fmt.Fprintf(&b, "deg shard=%d/%d fenced_round=%d pending_lost=%d mail_lost=%d\n",
			d.Shard, len(res.PerShard), d.FencedAtRound, d.PendingLost, d.MailLost)
	}
	return b.String()
}

// exportsOf renders a fleet's result whole: corpus manifest, stats and
// rounds, and every pillar it ran with, each in one format (the shard
// package holds the formats to each other). Profiles render as call rows
// only, since wall time is a measurement; crawl.checkpoint is left out,
// since it counts the barrier checkpoints only a supervised run writes.
func exportsOf(res *shard.Result) exports {
	ex := exports{
		"corpus":  corpusOf(res),
		"stats":   fmt.Sprintf("%+v rounds=%d", res.Stats, res.Rounds),
		"metrics": res.Metrics.Text(),
	}
	if res.Traces != nil {
		ex["trace"] = res.Traces.Text()
	}
	if res.Logs != nil {
		ex["log"] = res.Logs.Logfmt()
	}
	if res.Series != nil {
		ex["series"] = res.Series.CSV()
	}
	if res.Profile != nil {
		var rows strings.Builder
		for _, sd := range res.Profile.Scopes {
			if sd.Name != "crawl.checkpoint" {
				fmt.Fprintf(&rows, "%s %d\n", sd.Name, sd.Calls)
			}
		}
		ex["profile"] = rows.String()
	}
	return ex
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

func newFleet(t *testing.T, e *env, cfg shard.Config) *shard.Runner {
	t.Helper()
	r, err := shard.New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.WithTrace(trace.DefaultConfig(7)).WithLog(evlog.DefaultConfig(7))
	return r
}

// run executes the supervised crawl to completion: seed, supervised
// rounds until the budget or the frontiers end it, merge — cmd/crawl's
// round loop without its checkpoint cut.
func (s *Supervisor) run(seedURLs []string) (*shard.Result, error) {
	s.r.Seed(seedURLs)
	for {
		cont, err := s.Round()
		if err != nil {
			return nil, err
		}
		if !cont {
			return s.r.Finish(), nil
		}
	}
}

// runSupervised runs the supervised fleet and returns its exports and
// the supervision report.
func runSupervised(t *testing.T, e *env, cfg shard.Config, scfg Config) (exports, *Report, *shard.Result) {
	t.Helper()
	sup := New(newFleet(t, e, cfg), scfg)
	res, err := sup.run(e.seeds)
	if err != nil {
		t.Fatal(err)
	}
	return exportsOf(res), sup.Report(), res
}

// TestRandomCrashScheduleReplayable: the seeded random crash tier is
// pure in the plan, so two supervised runs under the same plan agree on
// every export byte and on the supervision history — at any DoP.
func TestRandomCrashScheduleReplayable(t *testing.T) {
	e := newEnv(t, 60, nil)
	crash := &synthweb.CrashPlan{Seed: 99, Rate: 0.25, MaxAttempts: 2}
	a, repA, _ := runSupervised(t, e, fleetCfg(3, 1), Config{RecoveryBudget: 5, Crash: crash, Seed: 7})
	if repA.Crashes == 0 {
		t.Skip("rate 0.25 scheduled no crashes in this run shape; nothing to replay")
	}
	for _, dop := range []int{1, 3} {
		b, repB, _ := runSupervised(t, e, fleetCfg(3, dop), Config{RecoveryBudget: 5, Crash: crash, Seed: 7})
		diffExports(t, fmt.Sprintf("replay DoP %d", dop), a, b)
		if repA.Crashes != repB.Crashes || fmt.Sprint(repA.Restarts) != fmt.Sprint(repB.Restarts) {
			t.Errorf("DoP %d: supervision history diverged: %d/%v vs %d/%v",
				dop, repA.Crashes, repA.Restarts, repB.Crashes, repB.Restarts)
		}
	}
}

// TestDegradedCompletion: a shard crashing past its recovery budget is
// fenced; the run still completes, deterministically at any DoP, with
// the missing partition enumerated everywhere it matters.
func TestDegradedCompletion(t *testing.T) {
	e := newEnv(t, 60, nil)
	crash := &synthweb.CrashPlan{Points: []synthweb.CrashPoint{
		{Shard: 1, Round: 1, Attempts: 1000}, // poisoned: never clears
	}}
	scfg := Config{RecoveryBudget: 2, Crash: crash, Seed: 7}
	base, rep, res := runSupervised(t, e, fleetCfg(3, 1), scfg)

	if len(rep.Fenced) != 1 || rep.Fenced[0] != 1 {
		t.Fatalf("Fenced = %v, want [1]", rep.Fenced)
	}
	if rep.Restarts[1] != 2 {
		t.Errorf("fenced shard got %d restarts, want its full budget 2", rep.Restarts[1])
	}
	if rep.Crashes != 3 {
		t.Errorf("crashes = %d, want budget+1 = 3", rep.Crashes)
	}
	if len(res.Degraded) != 1 || res.Degraded[0].Shard != 1 || res.Degraded[0].FencedAtRound != 1 {
		t.Fatalf("Degraded = %+v, want shard 1 fenced at round 1", res.Degraded)
	}
	if !strings.Contains(base["corpus"], "deg shard=1/3 fenced_round=1") {
		t.Error("corpus manifest lacks the deg footer for shard 1")
	}
	if res.Stats.FrontierEmptied {
		t.Error("degraded run claims an emptied frontier")
	}
	if res.Stats.Fetched == 0 {
		t.Error("degraded run fetched nothing — survivors did not finish")
	}
	sum := rep.Summary(res.Degraded)
	if !strings.Contains(sum, "DEGRADED: partition 1") {
		t.Errorf("summary lacks the degraded banner:\n%s", sum)
	}

	// Degraded completion is itself deterministic: same schedule, DoP 3.
	got, _, _ := runSupervised(t, e, fleetCfg(3, 3), scfg)
	diffExports(t, "degraded DoP 3", base, got)
}

// TestStallDetectionDeterministic: slow hosts skew per-round clock
// advances; the straggler flags are pure functions of the run, so two
// runs at different DoP agree exactly.
func TestStallDetectionDeterministic(t *testing.T) {
	e := newEnv(t, 60, func(c *synthweb.Config) { c.SlowHostShare = 0.3 })
	scfg := Config{RecoveryBudget: 3, StallFactor: 1.5, Seed: 7}
	a, repA, _ := runSupervised(t, e, fleetCfg(3, 1), scfg)
	b, repB, _ := runSupervised(t, e, fleetCfg(3, 3), scfg)
	diffExports(t, "stall DoP 3", a, b)
	if fmt.Sprint(repA.Stalls) != fmt.Sprint(repB.Stalls) {
		t.Errorf("stall history diverged: %v vs %v", repA.Stalls, repB.Stalls)
	}
	if repA.Crashes != 0 {
		t.Errorf("stall run observed %d crashes, want 0", repA.Crashes)
	}
}

// TestSupervisionPillarsAndDoctor: supervision events land in the
// supervisor's own two pillars (fleet.* metrics, fleet.supervisor logs;
// it keeps no trace), the crawl pillars stay clean, and the merged view
// raises exactly one fleet-fault doctor finding, degraded-completion:
// the fenced run's crashes are part of that finding, not a second one.
func TestSupervisionPillarsAndDoctor(t *testing.T) {
	e := newEnv(t, 60, nil)
	crash := &synthweb.CrashPlan{Points: []synthweb.CrashPoint{
		{Shard: 0, Round: 1, Attempts: 1},
		{Shard: 1, Round: 1, Attempts: 1000},
	}}
	got, rep, res := runSupervised(t, e, fleetCfg(3, 1),
		Config{RecoveryBudget: 1, Crash: crash, Seed: 7})

	if strings.Contains(got["log"], "fleet.supervisor") {
		t.Error("supervision records leaked into the crawl log export")
	}
	if rep.Metrics.Counter("fleet.shard.crashes") == 0 {
		t.Error("fleet.shard.crashes counter is zero")
	}
	if rep.Metrics.Counter("fleet.shard.fenced") != 1 {
		t.Errorf("fleet.shard.fenced = %d, want 1", rep.Metrics.Counter("fleet.shard.fenced"))
	}
	if !strings.Contains(rep.Logs.Logfmt(), "shard.restart") {
		t.Error("supervision log lacks shard.restart records")
	}
	if !strings.Contains(rep.Logs.Logfmt(), "shard.fenced") {
		t.Error("supervision log lacks the shard.fenced record")
	}
	if rep.Traces != nil {
		t.Errorf("supervisor exports a trace pillar: %+v", rep.Traces)
	}

	diag := doctor.Diagnose(doctor.Input{Snapshot: pillars.Snapshot{
		Metrics: res.Metrics.Merge(rep.Metrics),
		Traces:  trace.Merge(res.Traces, rep.Traces),
		Logs:    evlog.Merge(res.Logs, rep.Logs),
	}})
	var fleet []string
	for _, f := range diag.Findings {
		if f.Rule == "shard-crash-loop" || f.Rule == "degraded-completion" {
			fleet = append(fleet, f.Rule)
		}
	}
	if len(fleet) != 1 || fleet[0] != "degraded-completion" {
		t.Errorf("merged diagnosis raises fleet findings %v, want exactly [degraded-completion]", fleet)
	}
}
