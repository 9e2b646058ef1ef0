package webtextie

// End-to-end test of the observability layer: one registry receives a
// focused crawl and a dataflow execution, and the rendered snapshot must
// carry per-cycle fetch counts, per-operator record counts, and the
// per-page processing-cost histogram. The crawler instruments observe
// only virtual-clock values, so that subset must be bit-identical across
// same-seed runs.

import (
	"strings"
	"testing"

	"webtextie/internal/classify"
	"webtextie/internal/crawler"
	"webtextie/internal/dataflow"
	"webtextie/internal/obs"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/rng"
	"webtextie/internal/seeds"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// crawlerSubset extracts the deterministic crawler.* part of a snapshot.
func crawlerSubset(s obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]obs.HistSnapshot{},
	}
	for k, v := range s.Counters {
		if strings.HasPrefix(k, "crawler.") {
			out.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if strings.HasPrefix(k, "crawler.") {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Hists {
		if strings.HasPrefix(k, "crawler.") {
			out.Hists[k] = v
		}
	}
	return out
}

type integrationRun struct {
	snap  obs.Snapshot
	stats crawler.Stats
	exec  *dataflow.ExecStats
	plan  *dataflow.Plan
}

// runInstrumented drives a small crawl and a small dataflow execution
// into one shared registry.
func runInstrumented(t *testing.T) integrationRun {
	t.Helper()
	reg := obs.New()

	// Crawl (same construction as the crawler package's test pipeline).
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 400, Drugs: 120, Diseases: 120}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	webCfg := synthweb.DefaultConfig()
	webCfg.NumHosts = 40
	web := synthweb.New(webCfg, gen)
	clf := classify.New()
	r := rng.New(3)
	for i := 0; i < 200; i++ {
		clf.Learn(gen.Doc(r, textgen.Medline, "m").Text, classify.Relevant)
		clf.Learn(gen.Doc(r, textgen.Irrelevant, "w").Text, classify.Irrelevant)
	}
	catalog := seeds.BuildCatalog(4, lex, seeds.CatalogSizes{General: 8, Disease: 40, Drug: 30, Gene: 50})
	seedURLs := seeds.Generate(seeds.DefaultEngines(5, web), catalog).SeedURLs
	cfg := crawler.DefaultConfig()
	cfg.MaxPages = 150
	res := crawler.New(cfg, web, clf).WithMetrics(reg).Run(seedURLs)

	// Dataflow over the crawled net text: src -> length filter -> sink op.
	plan := &dataflow.Plan{}
	src := plan.Add(&dataflow.Op{Name: "src", Pkg: dataflow.BASE, Selectivity: 1,
		Fn: func(rec dataflow.Record, emit dataflow.Emit) error { emit(rec); return nil }})
	long := plan.Add(&dataflow.Op{Name: "long", Pkg: dataflow.BASE, Filter: true, Selectivity: 0.5,
		Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
			if len(rec["text"].(string)) >= 200 {
				emit(rec)
			}
			return nil
		}}, src)
	plan.Add(&dataflow.Op{Name: "count", Pkg: dataflow.BASE, Selectivity: 1,
		Fn: func(rec dataflow.Record, emit dataflow.Emit) error { emit(rec); return nil }}, long)
	var recs []dataflow.Record
	for _, p := range res.Relevant {
		recs = append(recs, dataflow.Record{"id": p.URL, "text": p.NetText})
	}
	if len(recs) == 0 {
		t.Fatal("crawl produced no relevant pages")
	}
	_, exec, err := dataflow.Execute(plan, recs, dataflow.ExecConfig{DoP: 4, Set: pillars.Set{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	return integrationRun{snap: reg.Snapshot(), stats: res.Stats, exec: exec, plan: plan}
}

func TestMetricsIntegration(t *testing.T) {
	run := runInstrumented(t)
	snap, st := run.snap, run.stats

	// Per-cycle fetch counts.
	if got := snap.Counter("crawler.cycles"); got != int64(st.Cycles) {
		t.Errorf("crawler.cycles = %d, Stats says %d", got, st.Cycles)
	}
	h, ok := snap.Hists["crawler.cycle.fetched"]
	if !ok || h.Count != int64(st.Cycles) || int64(h.Sum) != int64(st.Fetched) {
		t.Errorf("crawler.cycle.fetched count=%d sum=%v, want count=%d sum=%d",
			h.Count, h.Sum, st.Cycles, st.Fetched)
	}

	// The per-page processing-cost histogram covers every fetch attempt.
	pc, ok := snap.Hists["crawler.page.cost.ms"]
	if !ok || pc.Count != int64(st.Fetched+st.FetchErrors) {
		t.Errorf("crawler.page.cost.ms count = %d, want %d", pc.Count, st.Fetched+st.FetchErrors)
	}

	// Per-operator record counts agree with ExecStats.
	for _, n := range run.plan.Nodes() {
		ns := run.exec.PerNode[n.ID()]
		if ns == nil {
			t.Fatalf("no ExecStats for node %d", n.ID())
		}
		if got := snap.Counter(dataflow.MetricName(n, "in")); got != ns.In {
			t.Errorf("%s = %d, ExecStats.In = %d", dataflow.MetricName(n, "in"), got, ns.In)
		}
		if got := snap.Counter(dataflow.MetricName(n, "out")); got != ns.Out {
			t.Errorf("%s = %d, ExecStats.Out = %d", dataflow.MetricName(n, "out"), got, ns.Out)
		}
	}

	// The rendered snapshot mentions every layer.
	text := snap.Text()
	for _, want := range []string{
		"counter crawler.fetch.ok",
		"counter dataflow.op.00.src.in",
		"counter dataflow.op.01.long.out",
		"hist    crawler.page.cost.ms",
		"hist    crawler.cycle.fetched",
		"gauge   crawler.frontier.known",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot text is missing %q\n%s", want, text)
		}
	}
}

func TestMetricsIntegrationDeterministic(t *testing.T) {
	a := crawlerSubset(runInstrumented(t).snap)
	b := crawlerSubset(runInstrumented(t).snap)
	if at, bt := a.Text(), b.Text(); at != bt {
		t.Fatalf("crawler metrics differ across same-seed runs:\n--- run 1\n%s\n--- run 2\n%s", at, bt)
	}
}
