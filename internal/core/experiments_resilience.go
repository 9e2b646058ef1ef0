package core

import (
	"fmt"
	"reflect"

	"webtextie/internal/crawler"
	"webtextie/internal/dataflow"
	"webtextie/internal/seeds"
	"webtextie/internal/synthweb"
)

// ResilienceReport demonstrates the fault-injection and resilience layer:
// the same seeded web is crawled with and without retries, with dead hosts
// behind circuit breakers, interrupted/resumed from a checkpoint, and the
// IE data flow digests poisoned records under both error policies. Every
// number here is deterministic in the config seed — rerunning the report
// reproduces the same failures, the same retries, the same breaker trips.
func (e *Experiments) ResilienceReport() string {
	s := e.System()
	cfgC := s.Cfg.Corpora

	catalog := seeds.BuildCatalog(cfgC.Seed+3, s.Set.Lexicon,
		seeds.CatalogSizes{General: 4, Disease: 10, Drug: 8, Gene: 12})
	seedURLs := seeds.Generate(seeds.DefaultEngines(cfgC.Seed+4, s.Set.Web), catalog).SeedURLs

	crawlCfg := func() crawler.Config {
		cfg := cfgC.Crawl
		cfg.MaxPages = 400
		return cfg
	}

	var r report
	r.title("RESILIENCE — deterministic faults, retries, breakers, checkpoint/resume")

	r.section("1. retries recover transient faults (flaky URLs, 429s, slow hosts)")
	chaosCfg := cfgC.Web
	chaosCfg.FailureRate = 0.35
	chaosCfg.RateLimitShare = 0.25
	chaosCfg.SlowHostShare = 0.2
	chaos := synthweb.New(chaosCfg, s.Set.Generator)
	clean := crawler.New(crawlCfg(), s.Set.Web, s.Set.Classifier.Clone()).Run(seedURLs).Stats
	noRetry := crawlCfg()
	noRetry.MaxRetries = 0
	nr := crawler.New(noRetry, chaos, s.Set.Classifier.Clone()).Run(seedURLs).Stats
	wr := crawler.New(crawlCfg(), chaos, s.Set.Classifier.Clone()).Run(seedURLs).Stats
	r.line("fault-free web:             %4d fetched, %4d relevant", clean.Fetched, clean.Relevant)
	r.line("35%% flaky, retries off:     %4d fetched, %4d relevant, %4d fetch errors",
		nr.Fetched, nr.Relevant, nr.FetchErrors)
	r.line("35%% flaky, retries on:      %4d fetched, %4d relevant (%d retries, %d exhausted, %d rate-limited)",
		wr.Fetched, wr.Relevant, wr.Retries, wr.RetriesExhausted, wr.RateLimited)
	r.line("virtual crawl time:         %s clean vs %s under faults (backoff + retry-after + latency)",
		msString(clean.VirtualMs), msString(wr.VirtualMs))

	r.section("2. circuit breakers fence off dead hosts")
	deadCfg := chaosCfg
	deadCfg.DeadHostShare = 0.12
	deadWeb := synthweb.New(deadCfg, s.Set.Generator)
	ds := crawler.New(crawlCfg(), deadWeb, s.Set.Classifier.Clone()).Run(seedURLs).Stats
	r.line("12%% of hosts down: %d fetched, %d relevant", ds.Fetched, ds.Relevant)
	r.line("breakers opened %d times and deferred %d fetches away from dead hosts",
		ds.BreakerOpens, ds.BreakerDeferred)
	r.line("%d URLs abandoned after exhausting their %d-retry budget",
		ds.RetriesExhausted, crawlCfg().MaxRetries)

	r.section("3. checkpoint/resume reproduces the uninterrupted crawl")
	// Shrink the fetch lists so the crawl spans many cycles and the
	// checkpoint lands mid-crawl, not after the MaxPages stop.
	ckCfg := crawlCfg()
	ckCfg.FetchListSize = 50
	full := crawler.New(ckCfg, chaos, s.Set.Classifier.Clone())
	full.Seed(seedURLs)
	for full.Step() {
	}
	want := full.Finish().Stats

	half := crawler.New(ckCfg, chaos, s.Set.Classifier.Clone())
	half.Seed(seedURLs)
	for i := 0; i < 3 && half.Step(); i++ {
	}
	blob, err := half.Checkpoint().Marshal()
	if err != nil {
		r.line("checkpoint failed: %v", err)
		return r.String()
	}
	cp, err := crawler.UnmarshalCheckpoint(blob)
	if err != nil {
		r.line("checkpoint parse failed: %v", err)
		return r.String()
	}
	resumed, err := crawler.Resume(ckCfg, chaos, s.Set.Classifier.Clone(), cp)
	if err != nil {
		r.line("resume failed: %v", err)
		return r.String()
	}
	for resumed.Step() {
	}
	got := resumed.Finish().Stats
	r.line("checkpoint at cycle %d: %d bytes of JSON", cp.Stats.Cycles, len(blob))
	r.line("uninterrupted:      %4d fetched, %4d relevant, %d cycles", want.Fetched, want.Relevant, want.Cycles)
	r.line("interrupt + resume: %4d fetched, %4d relevant, %d cycles", got.Fetched, got.Relevant, got.Cycles)
	r.line("final statistics identical: %v", reflect.DeepEqual(want, got))

	r.section("4. data-flow error policy: quarantine vs fail-fast")
	mkPlan := func() *dataflow.Plan {
		p := &dataflow.Plan{}
		src := p.Add(&dataflow.Op{Name: "ingest", Pkg: dataflow.BASE, Selectivity: 1, Fn: pass})
		p.Add(&dataflow.Op{Name: "fragile-tagger", Pkg: dataflow.IE, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				i := rec["i"].(int)
				if i%50 == 0 {
					panic("tagger crash on degenerate sentence")
				}
				if i%9 == 0 {
					return errStaticDegenerate
				}
				emit(rec)
				return nil
			}}, src)
		return p
	}
	recs := make([]dataflow.Record, 200)
	for i := range recs {
		recs[i] = dataflow.Record{"i": i}
	}
	p := mkPlan()
	out, st, err := dataflow.Execute(p, recs, dataflow.ExecConfig{DoP: 4})
	if err != nil {
		r.line("quarantine run failed: %v", err)
		return r.String()
	}
	sink := p.Sinks()[0].ID()
	r.line("quarantine policy: %d/%d records survived a tagger that crashes or errors on 1 in ~8",
		len(out[sink]), len(recs))
	r.line("  %d errors (%d of them panics), %d records dead-lettered with their failing operator",
		st.TotalErrors(), totalPanics(st), st.TotalQuarantined())
	ff := dataflow.ExecConfig{DoP: 4, Policy: dataflow.FailFast}
	if _, _, err := dataflow.Execute(mkPlan(), recs, ff); err != nil {
		r.line("fail-fast policy:  run aborted — %v", err)
	} else {
		r.line("fail-fast policy:  unexpectedly succeeded")
	}
	return r.String()
}

// errStaticDegenerate is package-level so the quarantine report renders the
// same error text every run.
var errStaticDegenerate = errDegenerate{}

type errDegenerate struct{}

func (errDegenerate) Error() string { return "degenerate sentence: no tokens" }

// totalPanics sums recovered panics across all plan nodes.
func totalPanics(st *dataflow.ExecStats) int64 {
	var n int64
	for _, ns := range st.PerNode {
		n += ns.Panics
	}
	return n
}

// msString renders virtual milliseconds as seconds with one decimal.
func msString(ms int64) string {
	return fmt.Sprintf("%.1fs", float64(ms)/1000)
}
