package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"

	"webtextie/internal/core"
	"webtextie/internal/crawldb"
	"webtextie/internal/crawler"
	"webtextie/internal/crawler/shard"
	"webtextie/internal/dataflow"
	"webtextie/internal/ling"
	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
	"webtextie/internal/synthweb"
)

// runOpts are the two things a repeat can vary without changing its
// outputs: whether the observability pillars are attached and how many
// goroutines do the work.
type runOpts struct {
	observed bool
	dop      int
}

// outcome is what one repeat produced, reduced to what the checks and the
// metrics need.
type outcome struct {
	items  int   // fetched pages / input documents
	bytes  int64 // raw fetched bodies / input document text
	failed int64 // numerator of failed_share; the denominator is failed+items for crawls, items for flows
	digest string

	crawl *crawlOutcome
	flow  *flowOutcome
}

type crawlOutcome struct {
	stats  crawler.Stats
	rounds int
	// result is the crawl's whole result and dbs its crawl databases, one
	// per shard. The traced pass reads the fetched URLs from dbs and keeps
	// result reachable while it replays; light drops both.
	result any
	dbs    []*crawldb.CrawlDB
}

// light returns the outcome without its references into the program's
// result, so holding it as the reference does not keep a crawl's heap alive
// through the timed repeats.
func (o outcome) light() outcome {
	if o.crawl != nil {
		c := *o.crawl
		c.result, c.dbs = nil, nil
		o.crawl = &c
	}
	return o
}

// fetched lists every successfully fetched URL, sorted: the pages the
// crawl-path replay runs over.
func (c *crawlOutcome) fetched() []string {
	var urls []string
	for _, db := range c.dbs {
		status := db.Snapshot().Status
		for u := range status {
			if status[u] == crawldb.Fetched || status[u] == crawldb.Filtered {
				urls = append(urls, u)
			}
		}
		// Sorted right after the map range, where lintx's maprange check
		// looks for it; the last pass leaves the whole list sorted.
		sort.Strings(urls)
	}
	return urls
}

type flowOutcome struct {
	sinkRecords int
	hops        int64
	posFailed   int
}

// prepared is one repeat ready to go: run is the timed part and calls only
// the program under test; outcome digests the result afterwards.
type prepared struct {
	run     func() error
	outcome func() (outcome, error)
}

// workload is one closed loop from one process: each repeat starts when
// the previous one has completed.
type workload struct {
	name string
	// observed is the workload's own pillar setting; parallel says whether
	// dop reaches the program at all.
	observed bool
	parallel bool
	// inputs generates what the workload needs beyond the trained system;
	// nil when that is nothing.
	inputs func(*env) error
	// A crawl workload has web, the web it crawls, and crawl, which readies
	// one repeat; a flow workload has plan, which builds the plan it
	// executes. The traced pass replays against web and plan.
	web   func(*env) synthweb.Config
	crawl func(*env, runOpts) prepared
	plan  func(*core.Registry) *dataflow.Plan
}

// prepare builds everything a repeat must not share with another — web
// instances, classifier clone, plan, registry, pillar sinks — outside the
// timed region.
func (w *workload) prepare(e *env, o runOpts) prepared {
	if w.plan != nil {
		return prepareFlow(e, o, w.plan)
	}
	return w.crawl(e, o)
}

var workloads = []*workload{
	{name: "crawl_focused",
		web: func(e *env) synthweb.Config { return e.focusedWeb }, crawl: prepareFocused},
	{name: "crawl_fleet_observed", observed: true, parallel: true, inputs: fleetInputs,
		web: func(e *env) synthweb.Config { return e.fleetWeb }, crawl: prepareFleet},
	{name: "flow_abstracts", parallel: true, inputs: abstractInputs, plan: analysisPlan},
	{name: "flow_web_observed", observed: true, parallel: true, inputs: webInputs,
		plan: (*core.Registry).ConsolidatedFlow},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// own returns the options the timed repeats of w run with.
func (w *workload) own(dop int) runOpts {
	if !w.parallel {
		dop = 1
	}
	return runOpts{observed: w.observed, dop: dop}
}

func prepareFocused(e *env, o runOpts) prepared {
	cfg := crawler.DefaultConfig()
	cfg.MaxPages = e.sz.focusedPages
	cfg.FetchListSize = e.sz.focusedList
	cfg.MaxPerHostPerCycle = e.sz.crawlPerHost
	web := synthweb.New(e.focusedWeb, e.sys.Set.Generator)
	c := crawler.New(cfg, web, e.sys.Set.Classifier.Clone())
	if o.observed {
		c.WithMetrics(obs.New()).
			WithTrace(trace.NewRecorder(trace.DefaultConfig(e.seed))).
			WithLog(evlog.NewSink(evlog.DefaultConfig(e.seed))).
			WithSeries(series.New(series.DefaultConfig())).
			WithProf(prof.New(prof.Config{}))
	}
	var res *crawler.Result
	return prepared{
		run: func() error {
			res = c.Run(e.sys.Set.SeedRun.SeedURLs)
			return nil
		},
		outcome: func() (outcome, error) {
			if res.Stats.Fetched < cfg.MaxPages {
				return outcome{}, fmt.Errorf("fetched %d pages, want the full budget of %d", res.Stats.Fetched, cfg.MaxPages)
			}
			return crawlResult(res, res.Stats, res.Metrics, res.Relevant, res.IrrelevantPages, 0,
				[]*crawldb.CrawlDB{res.CrawlDB}), nil
		},
	}
}

func prepareFleet(e *env, o runOpts) prepared {
	cfg := shard.Config{Crawl: crawler.DefaultConfig(), Shards: fleetShards, Parallelism: o.dop}
	cfg.Crawl.MaxPages = e.sz.fleetPages
	cfg.Crawl.FetchListSize = e.sz.fleetList
	cfg.Crawl.MaxPerHostPerCycle = e.sz.crawlPerHost
	// shard.New wants mutually independent webs; build them ahead so the
	// timed region holds the crawl and not host-table generation.
	webs := make([]*synthweb.Web, fleetShards)
	for i := range webs {
		webs[i] = synthweb.New(e.fleetWeb, e.newGenerator())
	}
	next := 0
	r, err := shard.New(cfg, func() *synthweb.Web { next++; return webs[next-1] }, e.sys.Set.Classifier.Clone())
	if err == nil && o.observed {
		r.WithTrace(trace.DefaultConfig(e.seed)).
			WithLog(evlog.DefaultConfig(e.seed)).
			WithSeries(series.DefaultConfig()).
			WithProf(prof.Config{})
	}
	var res *shard.Result
	return prepared{
		run: func() error {
			if err != nil {
				return err
			}
			res = r.Run(e.fleetSeeds)
			return nil
		},
		outcome: func() (outcome, error) {
			if res.Stats.Fetched < cfg.Crawl.MaxPages {
				return outcome{}, fmt.Errorf("fleet fetched %d pages, want the full budget of %d", res.Stats.Fetched, cfg.Crawl.MaxPages)
			}
			if len(res.Degraded) > 0 {
				return outcome{}, fmt.Errorf("fleet finished degraded: %v", res.Degraded)
			}
			dbs := make([]*crawldb.CrawlDB, len(res.PerShard))
			for i, s := range res.PerShard {
				dbs[i] = s.CrawlDB
			}
			return crawlResult(res, res.Stats, res.Metrics, res.Relevant, res.IrrelevantPages, res.Rounds, dbs), nil
		},
	}
}

func crawlResult(result any, st crawler.Stats, m obs.Snapshot, rel, irr []crawler.CrawledPage, rounds int, dbs []*crawldb.CrawlDB) outcome {
	return outcome{
		items:  st.Fetched,
		bytes:  m.Counter("crawler.fetch.bytes"),
		failed: int64(st.FetchErrors + st.RetriesExhausted),
		digest: corpusDigest(rel, irr),
		crawl:  &crawlOutcome{stats: st, rounds: rounds, result: result, dbs: dbs},
	}
}

// corpusDigest hashes the URL-sorted corpus manifest: class, URL, raw size,
// gold label and net text of every classified page.
func corpusDigest(rel, irr []crawler.CrawledPage) string {
	h := sha256.New()
	render := func(class string, pages []crawler.CrawledPage) {
		pages = append([]crawler.CrawledPage(nil), pages...)
		sort.Slice(pages, func(i, j int) bool { return pages[i].URL < pages[j].URL })
		for _, p := range pages {
			fmt.Fprintf(h, "%s %s bytes=%d gold=%t text=%x\n", class, p.URL, p.Bytes, p.GoldRelevant, sha256.Sum256([]byte(p.NetText)))
		}
	}
	render("rel", rel)
	render("irr", irr)
	return hexDigest(h)
}

func hexDigest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// analysisPlan is the plan System.AnalyzeCorpus runs over Medline and PMC.
func analysisPlan(r *core.Registry) *dataflow.Plan {
	p := r.AnalysisFlow(false)
	dataflow.Optimize(p)
	return p
}

// prepareFlow builds a fresh registry and plan per repeat: dedupe_exact
// keeps its seen-set in the operator closure, so a reused plan drops every
// record of every repeat after the first at that operator.
func prepareFlow(e *env, o runOpts, build func(*core.Registry) *dataflow.Plan) prepared {
	plan := build(e.sys.Registry())
	cfg := dataflow.ExecConfig{DoP: o.dop}
	if o.observed {
		cfg.Metrics = obs.New()
		cfg.Trace = trace.NewRecorder(trace.DefaultConfig(e.seed))
		cfg.TraceKey = "id"
		cfg.Log = evlog.NewSink(evlog.DefaultConfig(e.seed))
		cfg.Prof = prof.New(prof.Config{})
	}
	var (
		results map[int][]dataflow.Record
		stats   *dataflow.ExecStats
	)
	return prepared{
		run: func() (err error) {
			results, stats, err = dataflow.Execute(plan, e.docs, cfg)
			return err
		},
		outcome: func() (outcome, error) {
			sinks := plan.Sinks()
			if len(sinks) != 1 {
				return outcome{}, fmt.Errorf("plan has %d sinks, want 1", len(sinks))
			}
			var hops int64
			for _, ns := range stats.PerNode {
				hops += ns.In
			}
			out := flowResult(e, results[sinks[0].ID()], hops)
			out.failed = stats.TotalErrors() + stats.TotalQuarantined()
			return out, nil
		},
	}
}

func flowResult(e *env, sink []dataflow.Record, hops int64) outcome {
	digest, posFailed := sinkDigest(sink)
	return outcome{
		items: len(e.docs), bytes: e.docBytes, digest: digest,
		flow: &flowOutcome{sinkRecords: len(sink), hops: hops, posFailed: posFailed},
	}
}

// sinkDigest hashes the sink records' contents in sorted order: the
// linguistic record's statistics and the entity record's distinct names and
// counts. Document ids are left out on purpose. dedupe_exact keeps whichever
// of two identical documents reaches it first, and with more than one worker
// per operator that order is the scheduler's: which id survives differs
// from run to run while what was extracted does not.
func sinkDigest(sink []dataflow.Record) (digest string, posFailed int) {
	lines := make([]string, 0, len(sink))
	for _, rec := range sink {
		if st, ok := rec["ling"].(ling.DocStats); ok {
			st.DocID = ""
			lines = append(lines, fmt.Sprintf("ling %+v", st))
			continue
		}
		failed, _ := rec["pos_failed"].(int)
		posFailed += failed
		lines = append(lines, fmt.Sprintf("ent names=%q n=%v pos_failed=%d abbrevs=%q",
			rec["names"], rec["n_entities"], failed, rec["abbrevs"]))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hexDigest(h), posFailed
}
