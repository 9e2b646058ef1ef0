package shard

import (
	"testing"

	"webtextie/internal/crawler"
	"webtextie/internal/ie/dict"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/trace"
	"webtextie/internal/textgen"
)

// exports bundles every byte surface a crawl publishes: the corpus
// manifest, the metrics text rendering, and the trace and log exports in
// both human and machine forms.
type exports struct {
	corpus   string
	metrics  string
	traces   string
	tracesJS string
	logs     string
	logsJS   string
	stats    crawler.Stats
	rounds   int
}

func runSharded(t *testing.T, e *env, shards, parallelism, maxPages int) exports {
	t.Helper()
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: shards, Parallelism: parallelism}
	cfg.Crawl.MaxPages = maxPages
	return runShardedCfg(t, e, cfg)
}

func runShardedCfg(t *testing.T, e *env, cfg Config) exports {
	t.Helper()
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.WithTrace(trace.DefaultConfig(7)).WithLog(evlog.DefaultConfig(7))
	res := r.Run(e.seeds)
	tj, err := res.Traces.JSON()
	if err != nil {
		t.Fatalf("trace JSON export: %v", err)
	}
	lj, err := res.Logs.JSON()
	if err != nil {
		t.Fatalf("log JSON export: %v", err)
	}
	return exports{
		corpus:   res.CorpusManifest(),
		metrics:  res.Metrics.Text(),
		traces:   res.Traces.Text(),
		tracesJS: string(tj),
		logs:     res.Logs.Logfmt(),
		logsJS:   string(lj),
		stats:    res.Stats,
		rounds:   res.Rounds,
	}
}

func diffExports(t *testing.T, label string, want, got exports) {
	t.Helper()
	check := func(surface, w, g string) {
		if w != g {
			i := 0
			for i < len(w) && i < len(g) && w[i] == g[i] {
				i++
			}
			lo, hi := i-80, i+80
			if lo < 0 {
				lo = 0
			}
			clip := func(s string) string {
				if hi < len(s) {
					return s[lo:hi]
				}
				return s[lo:]
			}
			t.Errorf("%s: %s export differs at byte %d\nwant ...%q...\ngot  ...%q...",
				label, surface, i, clip(w), clip(g))
		}
	}
	check("corpus", want.corpus, got.corpus)
	check("metrics", want.metrics, got.metrics)
	check("trace", want.traces, got.traces)
	check("trace-json", want.tracesJS, got.tracesJS)
	check("log", want.logs, got.logs)
	check("log-json", want.logsJS, got.logsJS)
	if want.stats != got.stats {
		t.Errorf("%s: stats differ:\nwant %+v\ngot  %+v", label, want.stats, got.stats)
	}
	if want.rounds != got.rounds {
		t.Errorf("%s: rounds differ: want %d, got %d", label, want.rounds, got.rounds)
	}
}

// The tentpole property: for a fixed shard count, the degree of
// parallelism is invisible. DoP 1 and DoP N produce byte-identical merged
// corpus, metrics, trace, and log exports — and the same stats, virtual
// makespan included. What sharding itself buys is stated on that clock
// too: on the same page budget, four shards reach at least twice the
// single shard's virtual throughput (vdocs/s, Fetched per VirtualMs —
// the budget is enforced at round barriers, so the two fleets overshoot
// it by different amounts and the bare clocks do not compare).
func TestShardedCrawlDeterministicAcrossDoP(t *testing.T) {
	e := newEnv(t, 120, nil)
	const shards = 4
	base := runSharded(t, e, shards, 1, 800)
	if base.corpus == "" {
		t.Fatal("DoP-1 run produced an empty corpus manifest")
	}
	if base.stats.Fetched < 800 {
		t.Fatalf("DoP-1 run fetched %d pages, want the full 800 budget", base.stats.Fetched)
	}
	for _, dop := range []int{2, shards} {
		got := runSharded(t, e, shards, dop, 800)
		diffExports(t, "DoP "+string(rune('0'+dop)), base, got)
	}
	single := runSharded(t, e, 1, 1, 800)
	if single.stats.Fetched < 800 {
		t.Fatalf("1-shard run fetched %d pages, want the full 800 budget", single.stats.Fetched)
	}
	if int64(base.stats.Fetched)*single.stats.VirtualMs < 2*int64(single.stats.Fetched)*base.stats.VirtualMs {
		t.Errorf("%d shards fetched %d pages in %d virtual ms, 1 shard %d in %d: want at least twice the vdocs/s",
			shards, base.stats.Fetched, base.stats.VirtualMs, single.stats.Fetched, single.stats.VirtualMs)
	}
}

// Repeating the identical run must also be byte-stable (no hidden global
// state leaks between fleets).
func TestShardedCrawlDeterministicAcrossRuns(t *testing.T) {
	e := newEnv(t, 80, nil)
	a := runSharded(t, e, 3, 3, 400)
	b := runSharded(t, e, 3, 3, 400)
	diffExports(t, "rerun", a, b)
}

// A 1-shard fleet is the unsharded crawler wearing a harness: with no
// page budget (the one knob the runner enforces differently — at
// barriers instead of mid-cycle), its exports must be byte-identical to
// crawler.Run on the same universe.
func TestSingleShardMatchesPlainCrawler(t *testing.T) {
	e := newEnv(t, 40, nil)

	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 1}
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.WithTrace(trace.DefaultConfig(7)).WithLog(evlog.DefaultConfig(7))
	res := r.Run(e.seeds)

	rec := trace.NewRecorder(trace.DefaultConfig(7))
	plainCrawler := crawler.New(crawler.DefaultConfig(), e.newWeb(), e.clf).
		WithTrace(rec).
		WithLog(evlog.NewSink(evlog.DefaultConfig(7)))
	plain := plainCrawler.Run(e.seeds)

	if !res.Stats.FrontierEmptied || !plain.Stats.FrontierEmptied {
		t.Fatal("both runs should exhaust their frontiers")
	}
	if res.Stats != plain.Stats {
		t.Errorf("stats diverge:\nsharded %+v\nplain   %+v", res.Stats, plain.Stats)
	}
	plainRes := &Result{
		Stats:           plain.Stats,
		Relevant:        append([]crawler.CrawledPage(nil), plain.Relevant...),
		IrrelevantPages: append([]crawler.CrawledPage(nil), plain.IrrelevantPages...),
	}
	sortCorpus(plainRes.Relevant)
	sortCorpus(plainRes.IrrelevantPages)
	if res.CorpusManifest() != plainRes.CorpusManifest() {
		t.Error("corpus manifests diverge")
	}
	if res.Metrics.Text() != plain.Metrics.Text() {
		t.Error("metric exports diverge")
	}
	if res.Traces.Text() != rec.Snapshot().Text() {
		t.Error("trace exports diverge")
	}
	if res.Logs.Logfmt() != plain.Logs.Logfmt() {
		t.Error("log exports diverge")
	}
}

// Entity matchers ride along unchanged: a sharded crawl with shared
// read-only dictionaries is still DoP-invisible.
func TestShardedCrawlWithEntityMatchersDeterministic(t *testing.T) {
	e := newEnv(t, 60, nil)
	matchers := map[textgen.EntityType]*dict.Matcher{}
	for _, et := range textgen.EntityTypes {
		matchers[et] = dict.Build(et.String(), e.lex.DictionarySurfaces(et), dict.DefaultOptions())
	}
	run := func(parallelism int) string {
		cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 4, Parallelism: parallelism}
		cfg.Crawl.MaxPages = 300
		cfg.Crawl.EntityBoost = true
		cfg.Crawl.EntityBoostDensity = 0.5
		r, err := New(cfg, e.newWeb, e.clf)
		if err != nil {
			t.Fatal(err)
		}
		r.WithEntityMatchers(matchers)
		return r.Run(e.seeds).CorpusManifest()
	}
	if run(1) != run(4) {
		t.Error("entity-boosted sharded crawl is not DoP-invisible")
	}
}
