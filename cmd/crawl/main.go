// Command crawl runs the focused crawler (§2) against the synthetic web
// and prints the §4.1 crawl statistics.
//
// Usage:
//
//	crawl [-hosts N] [-pages N] [-seed N] [-tunnel N] [-threshold P] [-metrics]
//	      [-shards N] [-shard-workers N]
//	      [-supervise] [-shard-recovery-budget N] [-shard-stall-factor F]
//	      [-shard-crash-at S:R[:K],...] [-shard-crash-rate P] [-shard-crash-seed N] [-shard-crash-max-attempts N]
//	      [-failure-rate P] [-dead-hosts P] [-slow-hosts P] [-ratelimit-hosts P] [-truncate-rate P]
//	      [-max-retries N] [-breaker-failures N] [-breaker-open-ms N]
//	      [-checkpoint FILE -checkpoint-cycles N] [-resume FILE]
//	      [-trace] [-trace-out FILE]
//	      [-log] [-log-out FILE] [-doctor] [-debug-addr HOST:PORT]
//	      [-series] [-series-out FILE]
//	      [-prof] [-prof-out FILE]
//
// -shards N partitions the frontier by host hash into N shards, each with
// its own crawldb, metric registry, trace recorder, and log sink, crawling
// in BSP rounds on -shard-workers goroutines (default: one per shard).
// The merged corpus, statistics, and observability exports are
// byte-identical for any worker count; -pages becomes a fleet-wide budget
// enforced at round barriers. -checkpoint/-resume write and read a fleet
// manifest of per-shard checkpoints; the shard count must match on
// resume. -debug-addr is not available in sharded mode.
//
// -supervise runs the fleet under the fault-tolerant supervisor: shard
// panics are caught, the shard is rolled back to its silent per-round
// barrier checkpoint and re-stepped (byte-identical recovery), stragglers
// are flagged via virtual-clock deadlines, and a shard that crashes past
// its -shard-recovery-budget is fenced — the run completes degraded with
// the missing host-hash partitions listed in the recovery summary and the
// corpus manifest. The -shard-crash-* flags inject a deterministic crash
// schedule (pure in the crash seed) and imply -supervise.
//
// -trace attaches the deterministic lineage recorder; -trace-out writes
// its end-of-run text export. -log attaches the deterministic structured
// event log (-log-out writes its logfmt export). -series samples the
// metric registry on the virtual clock — per cycle unsharded, per BSP
// round fleet-wide — and prints end-of-run sparklines (-series-out writes
// the CSV export). -prof attaches the wall-clock stage profiler — calls
// and wall ms per frontier/fetch/filter/classify stage, per shard and
// summed fleet-wide — and prints the 10 most expensive scopes at exit
// (-prof-out writes the profile as JSON). -doctor attaches all of them and
// prints the cross-pillar diagnosis at exit. -debug-addr serves the same
// bytes live while the crawl runs: /metrics is the -metrics block,
// /traces, /logs, /timeseries and /profile are the four export files, and
// /doctor is the -doctor report; /progress and /debug/pprof ride along.
//
// Fault injection is deterministic in the seed: the same flags reproduce
// the same failures, retries, and breaker trips. A crawl interrupted with
// -checkpoint and continued with -resume prints the same final statistics
// — and the same event-log export — as an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"webtextie/internal/classify"
	"webtextie/internal/corpora"
	"webtextie/internal/crawldb"
	"webtextie/internal/crawler"
	"webtextie/internal/crawler/shard"
	"webtextie/internal/crawler/shard/supervisor"
	"webtextie/internal/graph"
	"webtextie/internal/obs"
	"webtextie/internal/obs/cliobs"
	"webtextie/internal/obs/doctor"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
	"webtextie/internal/rng"
	"webtextie/internal/seeds"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

func main() {
	hosts := flag.Int("hosts", 300, "number of hosts in the synthetic web")
	pages := flag.Int("pages", 3000, "stop after this many fetched pages (0 = frontier exhaustion)")
	seed := flag.Uint64("seed", 1, "generation seed")
	tunnel := flag.Int("tunnel", 1, "tunnelling depth (1 = stop at irrelevant pages)")
	threshold := flag.Float64("threshold", 0.5, "classifier relevance threshold")
	termScale := flag.Int("terms", 10, "seed-term catalogue scale divisor (Table 1 sizes / N)")
	metrics := flag.Bool("metrics", false, "dump the obs metric registry at exit")
	failureRate := flag.Float64("failure-rate", 0, "fraction of URLs with transient fetch failures")
	deadHosts := flag.Float64("dead-hosts", 0, "fraction of hosts that are persistently down")
	slowHosts := flag.Float64("slow-hosts", 0, "fraction of hosts with a per-fetch latency spike")
	rlHosts := flag.Float64("ratelimit-hosts", 0, "fraction of hosts throttling with 429 + retry-after")
	truncRate := flag.Float64("truncate-rate", 0, "per-(URL, attempt) probability of a truncated body")
	maxRetries := flag.Int("max-retries", crawler.DefaultConfig().MaxRetries,
		"retry budget per URL for transient failures (0 disables retrying)")
	breakerFails := flag.Int("breaker-failures", crawler.DefaultConfig().BreakerFailures,
		"consecutive host failures that open the circuit breaker (0 disables breakers)")
	breakerOpenMs := flag.Int("breaker-open-ms", crawler.DefaultConfig().BreakerOpenMs,
		"virtual ms an open breaker holds before its half-open probe")
	ckptFile := flag.String("checkpoint", "", "write a checkpoint to FILE after -checkpoint-cycles cycles and exit")
	ckptCycles := flag.Int("checkpoint-cycles", 5, "cycles to run before writing the -checkpoint file")
	resumeFile := flag.String("resume", "", "resume the crawl from a checkpoint FILE (same seed/flags as the original run)")
	shards := flag.Int("shards", 1, "partition the frontier by host hash into N shards crawling in parallel")
	shardWorkers := flag.Int("shard-workers", 0, "goroutines stepping shards per round (0 = one per shard; any value gives identical output)")
	supervise := flag.Bool("supervise", false, "run the shard fleet under the fault-tolerant supervisor (implied by any -shard-crash-* flag)")
	crashAt := flag.String("shard-crash-at", "", "inject crashes at comma-separated shard:round[:attempts] points (implies -supervise)")
	crashRate := flag.Float64("shard-crash-rate", 0, "per-(shard, round) injected crash probability (implies -supervise)")
	crashSeed := flag.Uint64("shard-crash-seed", 0, "seed for the random crash tier (0 = -seed)")
	crashMaxAttempts := flag.Int("shard-crash-max-attempts", 1, "max step attempts a random crash point persists for")
	recoveryBudget := flag.Int("shard-recovery-budget", supervisor.DefaultRecoveryBudget,
		"checkpoint restarts granted each shard before it is fenced (degraded mode)")
	stallFactor := flag.Float64("shard-stall-factor", 3,
		"flag a shard stalled when its round clock advance exceeds this multiple of the fleet median (0 disables)")
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()

	crashPoints, err := synthweb.ParseCrashPoints(*crashAt)
	if err != nil {
		log.Fatal(err)
	}
	crashPlan := &synthweb.CrashPlan{
		Seed:        *crashSeed,
		Rate:        *crashRate,
		MaxAttempts: *crashMaxAttempts,
		Points:      crashPoints,
	}
	if crashPlan.Seed == 0 {
		crashPlan.Seed = *seed
	}
	if !crashPlan.Empty() {
		*supervise = true
	}
	if *supervise && *shards <= 1 {
		log.Fatal("crawl: -supervise and -shard-crash-* need a fleet; set -shards > 1")
	}

	lex := textgen.NewLexicon(rng.New(*seed), textgen.DefaultLexiconSizes(), 0.75)
	gen := textgen.NewGenerator(*seed+1, lex, textgen.DefaultProfiles())
	webCfg := synthweb.DefaultConfig()
	webCfg.Seed = *seed
	webCfg.NumHosts = *hosts
	webCfg.FailureRate = *failureRate
	webCfg.DeadHostShare = *deadHosts
	webCfg.SlowHostShare = *slowHosts
	webCfg.RateLimitShare = *rlHosts
	webCfg.TruncateRate = *truncRate
	web := synthweb.New(webCfg, gen)

	fmt.Printf("synthetic web: %d hosts\n", len(web.Hosts))

	clf := corpora.TrainClassifier(gen, *seed+2, 400)
	clf.Threshold = *threshold

	obsSetup := obsFlags.Setup(*seed)

	// A resumed crawl takes its frontier from the checkpoint, so seed
	// generation is skipped entirely: its URLs would go unused, and its
	// log records would dirty the sink before WithLog loads the
	// checkpoint's log snapshot (Load requires a fresh sink). A sharded
	// crawl logs into per-shard sinks, so its seed generation bypasses the
	// process sink.
	var seedURLs []string
	if *resumeFile == "" {
		catalog := seeds.BuildCatalog(*seed+3, lex, seeds.ScaledSizes(seeds.PaperSizes(), *termScale))
		var run seeds.Run
		if *shards > 1 {
			run = seeds.Generate(seeds.DefaultEngines(*seed+4, web), catalog)
		} else {
			run = seeds.GenerateLogged(seeds.DefaultEngines(*seed+4, web), catalog, obsSetup.Log)
		}
		fmt.Printf("seed generation: %d terms -> %d queries -> %d seed URLs\n",
			catalog.Total(), run.QueriesIssued, len(run.SeedURLs))
		seedURLs = run.SeedURLs
	}

	cfg := crawler.DefaultConfig()
	cfg.MaxPages = *pages
	cfg.Tunnelling = *tunnel
	cfg.MaxRetries = *maxRetries
	cfg.BreakerFailures = *breakerFails
	cfg.BreakerOpenMs = *breakerOpenMs

	if *shards > 1 {
		if *obsFlags.DebugAddr != "" {
			log.Fatal("crawl: -debug-addr is not available with -shards > 1 " +
				"(live pillars are per-shard; use the merged end-of-run exports)")
		}
		runSharded(shardedOpts{
			seed:         *seed,
			webCfg:       webCfg,
			crawlCfg:     cfg,
			shards:       *shards,
			workers:      *shardWorkers,
			clf:          clf,
			seedURLs:     seedURLs,
			ckptFile:     *ckptFile,
			ckptRounds:   *ckptCycles,
			resumeFile:   *resumeFile,
			printMetrics: *metrics,
			obsSetup:     obsSetup,
			supervise:    *supervise,
			crash:        crashPlan,
			budget:       *recoveryBudget,
			stallFactor:  *stallFactor,
		})
		return
	}

	// wire attaches every flagged observability surface to a constructed
	// crawler and starts the live debug server around it.
	wire := func(c *crawler.Crawler) {
		c.WithMetrics(obsSetup.Metrics).WithTrace(obsSetup.Trace).WithLog(obsSetup.Log).
			WithSeries(obsSetup.Series).WithProf(obsSetup.Prof)
		addr, err := obsSetup.Serve(func() any { return c.LiveStats() })
		if err != nil {
			log.Fatal(err)
		}
		if addr != "" {
			fmt.Printf("debug server listening on http://%s/\n", addr)
		}
	}
	// finish prints the observability end-of-run summary and exports.
	finish := func(snap pillars.Snapshot) {
		summary, err := obsSetup.Finish(snap, nil)
		if summary != "" {
			fmt.Println()
			fmt.Print(summary)
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	var res *crawler.Result
	switch {
	case *resumeFile != "":
		data, err := os.ReadFile(*resumeFile)
		if err != nil {
			log.Fatal(err)
		}
		cp, err := crawler.UnmarshalCheckpoint(data)
		if err != nil {
			log.Fatal(err)
		}
		c, err := crawler.Resume(cfg, web, clf, cp)
		if err != nil {
			log.Fatal(err)
		}
		wire(c)
		fmt.Printf("resumed from %s at cycle %d (%d pages fetched)\n",
			*resumeFile, cp.Stats.Cycles, cp.Stats.Fetched)
		for c.Step() {
		}
		res = c.Finish()
	case *ckptFile != "":
		c := crawler.New(cfg, web, clf)
		wire(c)
		c.Seed(seedURLs)
		for i := 0; i < *ckptCycles && c.Step(); i++ {
		}
		cp := c.Checkpoint()
		data, err := cp.Marshal()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*ckptFile, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint after %d cycles (%d pages) written to %s (%d bytes)\n",
			cp.Stats.Cycles, cp.Stats.Fetched, *ckptFile, len(data))
		fmt.Printf("continue with: crawl -resume %s (plus the same seed/fault/resilience flags)\n", *ckptFile)
		finish(obsSetup.Snapshot())
		return
	default:
		c := crawler.New(cfg, web, clf)
		wire(c)
		res = c.Run(seedURLs)
	}
	printReport(res.Stats, res.LinkDB)

	finish(res.Snapshot)

	if *metrics {
		fmt.Println("\nmetric registry (obs)")
		fmt.Print(obs.Default().Snapshot().Text())
	}
}

// printReport renders the §4.1 crawl statistics and the Table 2 PageRank
// top-10 — the shared tail of the unsharded and sharded paths.
func printReport(st crawler.Stats, ldb *crawldb.LinkDB) {
	fmt.Println("\ncrawl statistics (§4.1)")
	fmt.Printf("  fetched:            %d pages in %d cycles\n", st.Fetched, st.Cycles)
	fmt.Printf("  harvest rate:       %.1f%% by bytes, %.1f%% by docs (paper: 38%% / 19%%)\n",
		100*st.HarvestRate(), 100*st.HarvestRateDocs())
	fmt.Printf("  relevant corpus:    %d docs, %d bytes\n", st.Relevant, st.RelevantBytes)
	fmt.Printf("  irrelevant corpus:  %d docs, %d bytes\n", st.Irrelevant, st.IrrelevantBytes)
	fmt.Printf("  filters:            MIME %.1f%%, language %.1f%%, length %.1f%% (paper: 9.5/14/17)\n",
		pct(st.FilteredMIME, st.Fetched), pct(st.FilteredLang, st.Fetched), pct(st.FilteredLength, st.Fetched))
	fmt.Printf("  download rate:      %.2f docs/s simulated (paper: 3-4)\n", st.DocsPerSecond())
	fmt.Printf("  frontier emptied:   %v\n", st.FrontierEmptied)
	fmt.Printf("  robots blocks:      %d\n", st.RobotsBlocked)
	fmt.Printf("  retries:            %d scheduled, %d exhausted, %d rate-limited fetches\n",
		st.Retries, st.RetriesExhausted, st.RateLimited)
	fmt.Printf("  circuit breakers:   %d opens, %d deferred fetches\n",
		st.BreakerOpens, st.BreakerDeferred)

	loc := graph.Locality(ldb)
	fmt.Printf("  link locality:      %.1f%% intra-host (%d edges)\n",
		100*loc.IntraShare(), ldb.Edges())

	g := graph.FromLinkDB(ldb)
	fmt.Println("\ntop-10 domains by PageRank (Table 2)")
	for _, h := range graph.TopHosts(g.PageRank(0.85, 100, 1e-10), 10) {
		fmt.Printf("  %-30s %.5f\n", h.Host, h.Rank)
	}
}

// pct returns n as a percentage of total — 0 when total is 0, as for a
// crawl that fetched nothing.
func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// shardedOpts carries the flag state into the -shards > 1 path.
type shardedOpts struct {
	seed         uint64
	webCfg       synthweb.Config
	crawlCfg     crawler.Config
	shards       int
	workers      int
	clf          *classify.NaiveBayes
	seedURLs     []string
	ckptFile     string
	ckptRounds   int
	resumeFile   string
	printMetrics bool
	obsSetup     *cliobs.Setup
	supervise    bool
	crash        *synthweb.CrashPlan
	budget       int
	stallFactor  float64
}

// runSharded drives the fleet: partitioned frontier, BSP rounds, merged
// exports. Each shard gets a private web instance (fresh generator, same
// seeds) so no mutable state crosses shard boundaries; the degree of
// parallelism cannot change any output byte.
func runSharded(o shardedOpts) {
	newWeb := func() *synthweb.Web {
		lx := textgen.NewLexicon(rng.New(o.seed), textgen.DefaultLexiconSizes(), 0.75)
		gn := textgen.NewGenerator(o.seed+1, lx, textgen.DefaultProfiles())
		return synthweb.New(o.webCfg, gn)
	}
	scfg := shard.Config{Crawl: o.crawlCfg, Shards: o.shards, Parallelism: o.workers}

	var runner *shard.Runner
	if o.resumeFile != "" {
		data, err := os.ReadFile(o.resumeFile)
		if err != nil {
			log.Fatal(err)
		}
		cp, err := shard.UnmarshalCheckpoint(data)
		if err != nil {
			log.Fatal(err)
		}
		runner, err = shard.Resume(scfg, newWeb, o.clf, cp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed fleet of %d shards from %s at round %d\n",
			cp.Shards, o.resumeFile, cp.Rounds)
	} else {
		var err error
		runner, err = shard.New(scfg, newWeb, o.clf)
		if err != nil {
			log.Fatal(err)
		}
	}
	if o.obsSetup.Trace != nil {
		runner.WithTrace(trace.DefaultConfig(o.seed))
	}
	if o.obsSetup.Log != nil {
		runner.WithLog(evlog.DefaultConfig(o.seed))
	}
	if o.obsSetup.Series != nil {
		runner.WithSeries(series.DefaultConfig())
	}
	if o.obsSetup.Prof != nil {
		runner.WithProf(prof.Config{})
	}
	if o.resumeFile == "" {
		runner.Seed(o.seedURLs)
	}

	// round advances the fleet one superstep: supervised (panic recovery,
	// checkpoint restart, stall detection, fencing) or plain.
	var sup *supervisor.Supervisor
	round := runner.Round
	if o.supervise {
		sup = supervisor.New(runner, supervisor.Config{
			RecoveryBudget: o.budget,
			StallFactor:    o.stallFactor,
			Crash:          o.crash,
			Seed:           o.seed,
		})
		round = func() bool {
			cont, err := sup.Round()
			if err != nil {
				log.Fatal(err)
			}
			return cont
		}
	}

	if o.ckptFile != "" {
		for i := 0; i < o.ckptRounds && round(); i++ {
		}
		cp, err := runner.Checkpoint()
		if err != nil {
			log.Fatal(err)
		}
		data, err := cp.Marshal()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(o.ckptFile, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fleet checkpoint after %d rounds written to %s (%d shards, %d bytes)\n",
			cp.Rounds, o.ckptFile, cp.Shards, len(data))
		fmt.Printf("continue with: crawl -resume %s -shards %d (plus the same seed/fault/resilience flags)\n",
			o.ckptFile, cp.Shards)
		return
	}

	for round() {
	}
	res := runner.Finish()
	workers := o.workers
	if workers <= 0 {
		workers = o.shards
	}
	fmt.Printf("sharded crawl: %d shards, %d workers, %d rounds\n",
		o.shards, workers, res.Rounds)

	// The recovery summary: what supervision did, and — loudly — which
	// host-hash partitions a degraded run is missing.
	var rep *supervisor.Report
	if sup != nil {
		rep = sup.Report()
		fmt.Println()
		if rep.Quiet() {
			fmt.Println("fleet recovery: clean run, no supervisor intervention")
		} else {
			fmt.Print(rep.Summary(res.Degraded))
		}
	}
	printReport(res.Stats, res.LinkDB)

	// Export files carry the crawl pillars only (byte-identical to an
	// unsupervised run); the doctor diagnoses crawl and supervision
	// pillars together. Fleet runs also hand the doctor the per-shard
	// virtual clocks so shard-cost-skew can see the partition balance the
	// merged stats reduce to a makespan. A fenced shard's clock stopped
	// at its barrier checkpoint, so it is marked -1 and left out.
	diag := &doctor.Input{Snapshot: res.Snapshot}
	if rep != nil {
		diag.Snapshot = pillars.Merge(res.Snapshot, rep.Snapshot)
	}
	for _, pr := range res.PerShard {
		diag.ShardVirtualMs = append(diag.ShardVirtualMs, pr.Stats.VirtualMs)
	}
	for _, d := range res.Degraded {
		diag.ShardVirtualMs[d.Shard] = -1
	}
	summary, err := o.obsSetup.Finish(res.Snapshot, diag)
	if summary != "" {
		fmt.Println()
		fmt.Print(summary)
	}
	if err != nil {
		log.Fatal(err)
	}

	if o.printMetrics {
		fmt.Println("\nmetric registry (merged shards)")
		fmt.Print(res.Metrics.Text())
	}
}
