package shard

import (
	"testing"

	"webtextie/internal/crawler"
	"webtextie/internal/ie/dict"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/trace"
	"webtextie/internal/textgen"
)

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
