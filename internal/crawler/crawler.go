// Package crawler implements the focused crawler of §2: a Nutch-style
// generate/fetch/update loop (Fig 1) extended with the paper's focusing
// components — MIME-type filter, document-length filter, n-gram language
// filter, Boilerpipe-style net-text extraction, and a Naive Bayes relevance
// classifier. Links are followed only from pages classified as relevant
// (configurable tunnelling past irrelevant pages is the §5 ablation).
//
// Fetching is simulated against a synthweb.Web under a deterministic
// discrete-event clock that models politeness delays (robots.txt crawl
// delays, per-host serialization) and per-page processing cost, so the
// crawl reports a download rate comparable in kind to the paper's
// "3-4 documents per second" (§4.1) without wall-clock dependence.
package crawler

import (
	"strings"
	"sync/atomic"

	"webtextie/internal/boiler"
	"webtextie/internal/classify"
	"webtextie/internal/crawldb"
	"webtextie/internal/ie/dict"
	"webtextie/internal/langid"
	"webtextie/internal/mimetype"
	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// Config controls a crawl.
type Config struct {
	// MaxPages stops the crawl after this many successful fetches
	// ("the desired corpus size is reached", §2.1). 0 means unlimited.
	MaxPages int
	// FetchListSize is the number of URLs generated per cycle.
	FetchListSize int
	// MaxPerHostPerCycle caps each host's share of a fetch list
	// (paper: 500, §4.1).
	MaxPerHostPerCycle int
	// MaxPagesPerHost is the spider-trap guard: total fetches per host.
	MaxPagesPerHost int
	// MinNetTextLen is the document-length filter threshold (chars).
	MinNetTextLen int
	// MaxNetTextLen filters "extremely long documents" (Fig 2, first step).
	MaxNetTextLen int
	// Tunnelling is the number of consecutive irrelevant pages the crawler
	// follows links through. 1 reproduces the paper's setup (stop
	// immediately); 2 or 3 is the §5 "not stopping immediately" ablation.
	Tunnelling int
	// Workers is the number of simulated fetcher threads.
	Workers int
	// FetchCostMs and ProcessCostMs model per-page network and
	// filter+classify time in the virtual clock.
	FetchCostMs, ProcessCostMs int

	// EntityBoost enables the §5 "consolidated process" extension: the IE
	// pipeline's dictionary matchers feed the relevance decision ("the
	// occurrence of gene names or disease names are strong indicators for
	// biomedical content"). A page the classifier rejects is kept anyway
	// when its entity density exceeds EntityBoostDensity mentions per 100
	// words.
	EntityBoost        bool
	EntityBoostDensity float64

	// SelfTraining enables the §2.1 incremental-update extension ("its
	// ability to update its model incrementally, although we currently
	// don't use this feature"): pages classified with confidence beyond
	// SelfTrainingMargin (both directions) are fed back into the model.
	SelfTraining       bool
	SelfTrainingMargin float64

	// MaxRetries is the per-URL retry budget for transient fetch failures
	// (injected errors, truncated bodies, host-down, rate limits). 0
	// disables retries: every fetch error is terminal, the pre-resilience
	// behavior.
	MaxRetries int
	// BackoffBaseMs and BackoffMaxMs bound the exponential retry backoff
	// (base<<attempt, capped, plus deterministic jitter) on the virtual
	// clock.
	BackoffBaseMs, BackoffMaxMs int
	// BreakerFailures is the consecutive-failure threshold that opens a
	// host's circuit breaker. 0 disables breakers.
	BreakerFailures int
	// BreakerOpenMs is how long an open breaker rejects fetches before
	// letting a half-open probe through.
	BreakerOpenMs int
}

// DefaultConfig returns the calibrated crawl configuration.
func DefaultConfig() Config {
	return Config{
		MaxPages:           0,
		FetchListSize:      2000,
		MaxPerHostPerCycle: 500,
		MaxPagesPerHost:    300,
		MinNetTextLen:      250,
		MaxNetTextLen:      1 << 20,
		Tunnelling:         1,
		Workers:            16,
		FetchCostMs:        200,
		ProcessCostMs:      2500,
		EntityBoostDensity: 1.0,
		SelfTrainingMargin: 0.45,
		MaxRetries:         3,
		BackoffBaseMs:      500,
		BackoffMaxMs:       60_000,
		BreakerFailures:    5,
		BreakerOpenMs:      30_000,
	}
}

// CrawledPage is one stored page of the crawl output.
type CrawledPage struct {
	URL string
	// NetText is the boilerplate-stripped text actually extracted.
	NetText string
	// Gold is the generation ground truth (nil for noise pages): text,
	// sentence spans, mentions and relations, no tokens.
	Gold *textgen.Doc
	// GoldRelevant is the true topical label.
	GoldRelevant bool
	// Bytes is the raw page size.
	Bytes int
}

// Stats aggregates the §4.1 crawl accounting.
type Stats struct {
	// Fetched is the number of successful downloads.
	Fetched int
	// FetchErrors counts 404s/unknown hosts; RobotsBlocked counts URLs the
	// politeness rules forbade.
	FetchErrors, RobotsBlocked int
	// FilteredMIME/FilteredLang/FilteredLength count pre-filter discards.
	FilteredMIME, FilteredLang, FilteredLength int
	// Relevant/Irrelevant count classified pages; *Bytes their raw sizes.
	Relevant, Irrelevant           int
	RelevantBytes, IrrelevantBytes int
	// FrontierEmptied reports whether the crawl died naturally (§2.2).
	FrontierEmptied bool
	// EntityBoosted counts pages rescued by the entity-density signal
	// (EntityBoost extension).
	EntityBoosted int
	// SelfTrainUpdates counts incremental classifier updates
	// (SelfTraining extension).
	SelfTrainUpdates int
	// VirtualMs is the simulated crawl duration.
	VirtualMs int64
	// Cycles is the number of generate/fetch/update rounds.
	Cycles int
	// Retries counts requeues after transient failures; RetriesExhausted
	// counts URLs abandoned after MaxRetries failed attempts.
	Retries, RetriesExhausted int
	// RateLimited counts 429-style rejections honored via retry-after.
	RateLimited int
	// BreakerOpens counts closed->open circuit-breaker transitions;
	// BreakerDeferred counts fetches an open breaker pushed back into the
	// frontier.
	BreakerOpens, BreakerDeferred int
}

// Classified returns the number of pages that reached the classifier.
func (s *Stats) Classified() int { return s.Relevant + s.Irrelevant }

// HarvestRate returns the byte-weighted harvest rate (the paper's 38% is
// 373 GB relevant of 980 GB classified, §4.1).
func (s *Stats) HarvestRate() float64 {
	total := s.RelevantBytes + s.IrrelevantBytes
	if total == 0 {
		return 0
	}
	return float64(s.RelevantBytes) / float64(total)
}

// HarvestRateDocs returns the document-count harvest rate.
func (s *Stats) HarvestRateDocs() float64 {
	if s.Classified() == 0 {
		return 0
	}
	return float64(s.Relevant) / float64(s.Classified())
}

// DocsPerSecond returns the simulated download throughput.
func (s *Stats) DocsPerSecond() float64 {
	if s.VirtualMs == 0 {
		return 0
	}
	return float64(s.Fetched) / (float64(s.VirtualMs) / 1000)
}

// Result is the complete crawl output.
type Result struct {
	Stats    Stats
	Relevant []CrawledPage
	// IrrelevantPages holds the pages classified off-domain (the fourth
	// corpus of §4.3).
	IrrelevantPages []CrawledPage
	LinkDB          *crawldb.LinkDB
	CrawlDB         *crawldb.CrawlDB
	// Snapshot is the crawl's pillars frozen at the end of Run. Metrics
	// holds the per-cycle fetch counts, filter/classify counters, frontier
	// gauges, politeness-stall and per-page cost histograms; Traces, Logs,
	// Series (one per-cycle sample stream per counter/gauge on the virtual
	// clock) and Profile (calls and wall time per
	// frontier/fetch/filter/classify stage) are nil when the crawl ran
	// without that pillar.
	pillars.Snapshot
}

// metrics bundles the crawler's obs instruments. Counters mirror the
// fields of Stats, and they are what the doctor's rules, the series
// pillar and the benchmark's crawler.fetch.bytes read; the histograms
// expose the distributions Stats cannot: fetches per cycle, politeness
// stalls, and per-page cost on the virtual clock.
type metrics struct {
	cycles, fetchOK, fetchErr, fetchBytes *obs.Counter
	robotsBlocked, stalls, links          *obs.Counter
	filterMIME, filterLang, filterLength  *obs.Counter
	classifyRelevant, classifyIrrelevant  *obs.Counter
	entityBoosted, selfTrain              *obs.Counter
	retrySched, retryExhausted            *obs.Counter
	rateLimited, hostDown, truncated      *obs.Counter
	frontierTrap                          *obs.Counter
	breakerOpened, breakerHalfOpen        *obs.Counter
	breakerClosed, breakerDeferred        *obs.Counter
	idleAdvances                          *obs.Counter
	frontierPending, frontierKnown        *obs.Gauge
	virtualMs, breakerOpenHosts           *obs.Gauge
	cycleFetched, stallMs, pageCost       *obs.Histogram
	retryBackoffMs                        *obs.Histogram
}

// cycleBuckets histogram the number of fetches per generate/fetch cycle.
var cycleBuckets = []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		cycles:             reg.Counter("crawler.cycles"),
		fetchOK:            reg.Counter("crawler.fetch.ok"),
		fetchErr:           reg.Counter("crawler.fetch.errors"),
		fetchBytes:         reg.Counter("crawler.fetch.bytes"),
		robotsBlocked:      reg.Counter("crawler.robots.blocked"),
		stalls:             reg.Counter("crawler.politeness.stalls"),
		links:              reg.Counter("crawler.links.discovered"),
		filterMIME:         reg.Counter("crawler.filter.mime"),
		filterLang:         reg.Counter("crawler.filter.lang"),
		filterLength:       reg.Counter("crawler.filter.length"),
		classifyRelevant:   reg.Counter("crawler.classify.relevant"),
		classifyIrrelevant: reg.Counter("crawler.classify.irrelevant"),
		entityBoosted:      reg.Counter("crawler.entity.boosted"),
		selfTrain:          reg.Counter("crawler.selftrain.updates"),
		retrySched:         reg.Counter("crawler.retry.scheduled"),
		retryExhausted:     reg.Counter("crawler.retry.exhausted"),
		rateLimited:        reg.Counter("crawler.fetch.ratelimited"),
		frontierTrap:       reg.Counter("crawler.frontier.trap"),
		hostDown:           reg.Counter("crawler.fetch.hostdown"),
		truncated:          reg.Counter("crawler.fetch.truncated"),
		breakerOpened:      reg.Counter("crawler.breaker.opened"),
		breakerHalfOpen:    reg.Counter("crawler.breaker.halfopen"),
		breakerClosed:      reg.Counter("crawler.breaker.closed"),
		breakerDeferred:    reg.Counter("crawler.breaker.deferred"),
		idleAdvances:       reg.Counter("crawler.clock.idle.advances"),
		frontierPending:    reg.Gauge("crawler.frontier.pending"),
		frontierKnown:      reg.Gauge("crawler.frontier.known"),
		virtualMs:          reg.Gauge("crawler.virtual.ms"),
		breakerOpenHosts:   reg.Gauge("crawler.breaker.open.hosts"),
		cycleFetched:       reg.Histogram("crawler.cycle.fetched", cycleBuckets...),
		stallMs:            reg.Histogram("crawler.politeness.stall.ms", obs.DefaultMsBuckets...),
		pageCost:           reg.Histogram("crawler.page.cost.ms", obs.DefaultMsBuckets...),
		retryBackoffMs:     reg.Histogram("crawler.retry.backoff.ms", obs.DefaultMsBuckets...),
	}
}

// Crawler wires the components together.
type Crawler struct {
	cfg    Config
	web    *synthweb.Web
	clf    *classify.NaiveBayes
	lang   *langid.Identifier
	boiler *boiler.Classifier
	// matchers power the EntityBoost extension (nil disables it even when
	// the config asks for it).
	matchers map[textgen.EntityType]*dict.Matcher

	db  *crawldb.CrawlDB
	ldb *crawldb.LinkDB

	// tunnelDepth tracks, per URL, how many consecutive irrelevant hops
	// preceded it (0 for seeds and links from relevant pages).
	tunnelDepth map[string]int
	// perHost counts fetches per host for the trap guard.
	perHost map[string]int
	// clock state: per-host earliest next fetch, per-worker availability.
	hostFree   map[string]int64
	workerFree []int64
	// breakers holds each host's circuit breaker (created on first fetch).
	breakers map[string]*breaker

	// relevant/irrelevant accumulate the two crawled corpora.
	relevant, irrelevant []CrawledPage

	// router, when set, intercepts frontier insertions for URLs whose host
	// belongs to another shard (see WithRouter).
	router func(url, host string, depth int) bool

	// stepFault, when set, is invoked once per Step midway through the
	// fetch cycle — after the first fetch has mutated crawl state (see
	// WithStepFault).
	stepFault func()

	stats Stats
	// p holds the attached pillars (nil handle = that pillar is off);
	// Metrics is never nil — New installs a private registry. m, lg and pf
	// are the instruments, component loggers and stage scopes resolved from
	// it (zero Loggers/Scopes when off, so a hot-path site costs one nil
	// comparison).
	p  pillars.Set
	m  *metrics
	lg crawlLogs
	pf crawlScopes
	// resume is the checkpoint's pillar state on a resumed crawler: each
	// With* setter loads its pillar's part into the handle it attaches.
	resume pillars.Snapshot
	// live publishes a Stats copy after every cycle so debug-server
	// goroutines can read crawl progress without racing the crawl loop.
	live atomic.Pointer[Stats]
}

// New builds a crawler over a synthetic web with a trained classifier.
func New(cfg Config, web *synthweb.Web, clf *classify.NaiveBayes) *Crawler {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	c := &Crawler{
		cfg:         cfg,
		web:         web,
		clf:         clf,
		lang:        langid.New(),
		boiler:      boiler.Default(),
		db:          crawldb.New(),
		ldb:         crawldb.NewLinkDB(),
		tunnelDepth: map[string]int{},
		perHost:     map[string]int{},
		hostFree:    map[string]int64{},
		workerFree:  make([]int64, cfg.Workers),
		breakers:    map[string]*breaker{},
	}
	return c.WithMetrics(obs.New())
}

// WithMetrics points the crawler's instruments at the given registry
// (e.g. obs.Default() for a process-wide `--metrics` dump; nil selects
// it too). By default each crawler writes into a fresh private registry,
// snapshotted into Result.Metrics. Returns the crawler for chaining.
//
// WithMetrics, WithTrace, WithLog, WithSeries and WithProf are the
// crawler's whole pillar attach surface, one setter per pillar: a nil
// handle leaves that pillar off, and on a resumed crawler each setter
// first loads its pillar's part of the checkpoint into the handle it
// attaches.
func (c *Crawler) WithMetrics(reg *obs.Registry) *Crawler {
	c.p.Metrics = obs.Or(reg)
	c.m = newMetrics(c.p.Metrics)
	c.p.Metrics.Load(c.resume.Metrics)
	return c
}

// WithTrace points the crawler at a trace recorder: every URL gets a trace
// at frontier insertion, and fetch attempts, backoffs, breaker transitions,
// filter/classify verdicts, and checkpoint boundaries are recorded in
// virtual-clock time. On a resumed crawler the checkpoint's trace snapshot
// is loaded first, so the recorder continues the original ID stream.
// Returns the crawler for chaining.
func (c *Crawler) WithTrace(rec *trace.Recorder) *Crawler {
	c.p.Trace = rec
	rec.Load(c.resume.Traces)
	return c
}

// crawlLogs bundles the crawler's component loggers. The zero value is
// all no-op loggers — logging-off call sites cost one nil comparison.
type crawlLogs struct {
	frontier, breaker, cycle, checkpoint Logger
}

// Logger aliases evlog.Logger so crawlLogs stays readable.
type Logger = evlog.Logger

// WithLog points the crawler at an event-log sink: what happens to the
// run or to a host — hosts reaching the trap cap, breaker transitions,
// cycle ends, checkpoints, frontier exhaustion and the crawl's end — is
// logged in virtual-clock time. What happens to one URL is its trace's
// alone. On a resumed crawler the checkpoint's log snapshot is loaded
// first, so the sink continues the original stream and totals. Returns
// the crawler for chaining.
func (c *Crawler) WithLog(sink *evlog.Sink) *Crawler {
	c.p.Log = sink
	sink.Load(c.resume.Logs)
	c.lg = crawlLogs{
		frontier:   sink.Logger("crawler.frontier"),
		breaker:    sink.Logger("crawler.breaker"),
		cycle:      sink.Logger("crawler.cycle"),
		checkpoint: sink.Logger("crawler.checkpoint"),
	}
	return c
}

// WithSeries points the crawler at a time-series recorder: every cycle
// ends with one sample of the full metric registry (counters and gauges)
// plus the derived harvest-rate series, stamped with the cycle's virtual
// completion time. On a resumed crawler the checkpoint's series snapshot
// is loaded first, so the streams continue exactly where they stopped.
// Returns the crawler for chaining.
func (c *Crawler) WithSeries(rec *series.Recorder) *Crawler {
	c.p.Series = rec
	rec.Load(c.resume.Series)
	return c
}

// crawlScopes bundles the crawler's pre-resolved profiler scopes. The
// zero value is all disabled Scopes — profiling-off call sites cost one
// nil comparison, the same discipline as crawlLogs.
type crawlScopes struct {
	cycle, frontier, fetch, filter, classify, checkpoint prof.Scope
}

// WithProf points the crawler at a wall-clock stage profiler: each
// cycle's frontier generation and fetch loop are bracketed
// (crawl.cycle.frontier, crawl.cycle), inside the loop every fetch
// attempt (crawl.cycle.fetch), every fetched page's pre-filters
// (crawl.cycle.filter) and every classification (crawl.cycle.classify),
// and beside it every checkpoint (crawl.checkpoint). On a resumed
// crawler the checkpoint's profile snapshot is loaded first, so the
// accumulators continue where they stopped. Returns the crawler for
// chaining.
func (c *Crawler) WithProf(p *prof.Profiler) *Crawler {
	c.p.Prof = p
	p.Load(c.resume.Profile)
	c.pf = crawlScopes{
		cycle:      p.Scope("crawl.cycle"),
		frontier:   p.Scope("crawl.cycle.frontier"),
		fetch:      p.Scope("crawl.cycle.fetch"),
		filter:     p.Scope("crawl.cycle.filter"),
		classify:   p.Scope("crawl.cycle.classify"),
		checkpoint: p.Scope("crawl.checkpoint"),
	}
	return c
}

// MetricsSnapshot freezes the crawler's metric registry. Call it only
// between Step calls — the shard runner merges per-shard snapshots at
// round barriers into the fleet-level series sample.
func (c *Crawler) MetricsSnapshot() obs.Snapshot { return c.p.Metrics.Snapshot() }

// sampleSeries records one end-of-cycle sample of every counter and
// gauge, stamped with the crawl's virtual duration so far. The gauges
// that Finish normally refreshes are refreshed here first so the sample
// reflects end-of-cycle state; Finish overwrites them again, so final
// metric exports are unchanged by sampling.
func (c *Crawler) sampleSeries() {
	c.m.frontierPending.Set(int64(c.db.Pending()))
	c.m.frontierKnown.Set(int64(c.db.Known()))
	c.m.virtualMs.Set(c.stats.VirtualMs)
	at := c.stats.VirtualMs
	c.p.Series.Sample(at, c.p.Metrics.Snapshot())
	c.p.Series.Observe("crawler.harvest.rate.docs", at, c.stats.HarvestRateDocs())
}

// LiveStats returns the most recent published Stats copy (nil before the
// first cycle). Safe to call concurrently with a running crawl — this is
// the debug server's /progress source.
func (c *Crawler) LiveStats() *Stats { return c.live.Load() }

// CurrentStats returns a copy of the crawl statistics so far. Unlike
// LiveStats it reads the crawl loop's own state, so call it only between
// Step calls — the shard runner reads it at round barriers to enforce the
// fleet-wide page budget.
func (c *Crawler) CurrentStats() Stats { return c.stats }

// WithEntityMatchers supplies the dictionary matchers the EntityBoost
// extension consults (§5: crawling and text analytics as a consolidated
// process). Returns the crawler for chaining.
func (c *Crawler) WithEntityMatchers(m map[textgen.EntityType]*dict.Matcher) *Crawler {
	c.matchers = m
	return c
}

// entityDensity returns dictionary mentions per 100 words of text.
func (c *Crawler) entityDensity(text string) float64 {
	words := len(strings.Fields(text))
	if words == 0 {
		return 0
	}
	mentions := 0
	for _, m := range c.matchers {
		mentions += len(m.Find(text))
	}
	return 100 * float64(mentions) / float64(words)
}

// WithRouter installs a frontier router for sharded crawls: every URL
// about to enter the frontier is offered to the router first, and a true
// return means the URL belongs to another shard and was taken (queued as
// cross-shard mail). The router runs before the trap, robots, and dedup
// checks, so a routed URL's entire lifecycle — politeness, accounting,
// retries, breakers — happens on its home shard. Returns the crawler for
// chaining.
func (c *Crawler) WithRouter(route func(url, host string, depth int) bool) *Crawler {
	c.router = route
	return c
}

// WithStepFault installs a fault-injection hook for supervised crawls:
// f runs once per Step, mid-cycle — after the first fetch of the round
// has already advanced the clock, metrics, and frontier, so a panic
// raised by f leaves genuinely half-mutated state behind. A supervisor
// arms it with a deterministic crash schedule and recovers the panic at
// the shard boundary; nil disarms. Returns the crawler for chaining.
func (c *Crawler) WithStepFault(f func()) *Crawler {
	c.stepFault = f
	return c
}

// InjectURL offers one URL to the frontier through the same guarded path
// seeds take — how a shard runner delivers cross-shard mail. Call it only
// between Step calls (never mid-cycle).
func (c *Crawler) InjectURL(url string, depth int) {
	c.inject(url, depth)
}

// Pending returns the number of frontier URLs awaiting fetch. A shard
// runner polls this to decide whether the shard still has work before
// spending a Step on it.
func (c *Crawler) Pending() int { return c.db.Pending() }

// MarkFrontierEmptied records frontier exhaustion (stat flag plus the
// once-only pinned Warn). A shard runner skips Step on empty shards — a
// shard idle this round may receive mail the next — so Step never gets to
// observe exhaustion itself; the runner calls this at true end of crawl.
func (c *Crawler) MarkFrontierEmptied() { c.markFrontierEmptied() }

// inject adds a URL to the frontier if robots and trap guards allow it.
func (c *Crawler) inject(url string, depth int) {
	host, path, err := synthweb.SplitURL(url)
	if err != nil {
		return
	}
	if c.router != nil && c.router(url, host, depth) {
		return
	}
	if c.perHost[host] >= c.cfg.MaxPagesPerHost {
		c.m.frontierTrap.Inc()
		return
	}
	rb, ok := c.web.Robots(host)
	if !ok {
		return // unknown host; fetching would 404 anyway
	}
	if !rb.Allowed(path) {
		c.stats.RobotsBlocked++
		c.m.robotsBlocked.Inc()
		return
	}
	if c.db.Inject(url, host) {
		c.tunnelDepth[url] = depth
		// Stamp the URL with its lineage trace at frontier insertion.
		tc := c.p.Trace.Start("crawler.url", url, c.nowMs(), trace.String("host", host))
		if tc.Active() {
			tc.Event("frontier.inject", c.nowMs(), trace.Int("depth", int64(depth)))
			c.db.SetTrace(url, uint64(tc.Trace))
		}
	} else if d, ok := c.tunnelDepth[url]; ok && depth < d {
		// A better (shallower) path to a known URL keeps the smaller depth.
		c.tunnelDepth[url] = depth
	}
}

// Run executes the crawl from the given seed list.
func (c *Crawler) Run(seedURLs []string) *Result {
	c.Seed(seedURLs)
	for c.Step() {
	}
	return c.Finish()
}

// Seed injects the seed list into the frontier (the Nutch injector).
func (c *Crawler) Seed(seedURLs []string) {
	for _, u := range seedURLs {
		c.inject(u, 0)
	}
}

// nowMs is the crawl's current virtual time: the earliest moment any
// worker could start a fetch.
func (c *Crawler) nowMs() int64 {
	now := c.workerFree[0]
	for _, w := range c.workerFree[1:] {
		if w < now {
			now = w
		}
	}
	return now
}

// Step runs one generate/fetch/update cycle and reports whether the crawl
// should continue. When every frontier URL is backing off, the virtual
// clock idle-advances to the earliest eligibility instead of giving up —
// retries are bounded, so this always terminates. Checkpoint between Step
// calls to snapshot the crawl at a cycle boundary.
func (c *Crawler) Step() bool {
	if c.cfg.MaxPages > 0 && c.stats.Fetched >= c.cfg.MaxPages {
		return false
	}
	c.m.frontierPending.Set(int64(c.db.Pending()))
	c.m.frontierKnown.Set(int64(c.db.Known()))
	// A cycle that finds nothing to fetch returns without closing ch, so
	// crawl.cycle counts exactly the cycles stats.Cycles does.
	ch := c.pf.cycle.Enter()
	fh := c.pf.frontier.Enter()
	list := c.db.GenerateAt(c.cfg.FetchListSize, c.cfg.MaxPerHostPerCycle, c.nowMs())
	if len(list) == 0 {
		next, ok := c.db.NextEligible()
		if !ok {
			fh.Exit()
			c.markFrontierEmptied()
			return false
		}
		// Everything pending is waiting out a backoff or breaker window:
		// fast-forward the idle workers to the earliest eligibility.
		c.m.idleAdvances.Inc()
		for i := range c.workerFree {
			if c.workerFree[i] < next {
				c.workerFree[i] = next
			}
		}
		list = c.db.GenerateAt(c.cfg.FetchListSize, c.cfg.MaxPerHostPerCycle, c.nowMs())
		if len(list) == 0 {
			fh.Exit()
			c.markFrontierEmptied()
			return false
		}
	}
	fh.Exit()
	c.stats.Cycles++
	c.m.cycles.Inc()
	before := c.stats.Fetched
	c.fetchCycle(list)
	c.m.cycleFetched.Observe(float64(c.stats.Fetched - before))
	c.lg.cycle.Info("cycle.done", c.nowMs(),
		trace.Int("cycle", int64(c.stats.Cycles)),
		trace.Int("fetched", int64(c.stats.Fetched-before)),
		trace.Int("pending", int64(c.db.Pending())))
	if c.p.Series != nil {
		c.sampleSeries()
	}
	ch.Exit()
	s := c.stats
	c.live.Store(&s)
	return true
}

// markFrontierEmptied records frontier exhaustion exactly once. The flag
// and the pinned Warn both ride the checkpoint, so a resumed run that
// immediately re-discovers the empty frontier must not re-emit the record
// — the export would gain a duplicate relative to an uninterrupted run.
func (c *Crawler) markFrontierEmptied() {
	if c.stats.FrontierEmptied {
		return
	}
	c.stats.FrontierEmptied = true
	c.lg.frontier.Warn("frontier.exhausted", c.nowMs(),
		trace.Int("known", int64(c.db.Known())))
}

// Finish freezes the crawl into a Result.
func (c *Crawler) Finish() *Result {
	c.m.frontierPending.Set(int64(c.db.Pending()))
	c.m.frontierKnown.Set(int64(c.db.Known()))
	c.m.virtualMs.Set(c.stats.VirtualMs)
	c.lg.cycle.Info("crawl.done", c.nowMs(),
		trace.Int("fetched", int64(c.stats.Fetched)),
		trace.Int("relevant", int64(c.stats.Relevant)),
		trace.Int("cycles", int64(c.stats.Cycles)))
	s := c.stats
	c.live.Store(&s)
	return &Result{
		Stats:           c.stats,
		Relevant:        c.relevant,
		IrrelevantPages: c.irrelevant,
		LinkDB:          c.ldb,
		CrawlDB:         c.db,
		Snapshot:        c.p.Snapshot(),
	}
}

func (c *Crawler) fetchCycle(list []crawldb.FetchItem) {
	for n, item := range list {
		if c.cfg.MaxPages > 0 && c.stats.Fetched >= c.cfg.MaxPages {
			return
		}
		c.fetchOne(item)
		if n == 0 && c.stepFault != nil {
			c.stepFault()
		}
	}
}

// advanceClock schedules one fetch on the discrete-event clock;
// stats.VirtualMs tracks the latest completion time. Politeness stalls —
// time the chosen worker sits idle waiting for the target host's crawl
// delay to elapse — and the resulting per-page cost are observed on the
// virtual clock, so the histograms are deterministic for a given seed.
// latencyMs is extra server-side latency (slow hosts) on top of the base
// fetch cost.
func (c *Crawler) advanceClock(host string, delayMs, latencyMs int) {
	// Earliest available worker.
	w := 0
	for i := 1; i < len(c.workerFree); i++ {
		if c.workerFree[i] < c.workerFree[w] {
			w = i
		}
	}
	start := c.workerFree[w]
	if hf := c.hostFree[host]; hf > start {
		c.m.stalls.Inc()
		c.m.stallMs.Observe(float64(hf - start))
		start = hf
	}
	end := start + int64(c.cfg.FetchCostMs) + int64(latencyMs) + int64(c.cfg.ProcessCostMs)
	// Per-page processing cost: worker-available to page done, stalls
	// included (the §4.1 "3-4 documents per second" accounting).
	c.m.pageCost.Observe(float64(end - c.workerFree[w]))
	c.workerFree[w] = end
	c.hostFree[host] = start + int64(delayMs)
	if end > c.stats.VirtualMs {
		c.stats.VirtualMs = end
	}
}

// traceOf re-enters a URL's lineage trace from the ID stamped in the
// CrawlDB. Returns a no-op context when tracing is off or the URL has none.
func (c *Crawler) traceOf(url string) trace.Context {
	if c.p.Trace == nil {
		return trace.Context{}
	}
	id, ok := c.db.TraceOf(url)
	if !ok {
		return trace.Context{}
	}
	return c.p.Trace.Context(trace.TraceID(id))
}

// finishTrace closes a URL's trace with its terminal status.
func (c *Crawler) finishTrace(tc trace.Context, status string, atMs int64) {
	if !tc.Active() {
		return
	}
	tc.Event("crawl.done", atMs, trace.String("status", status))
	tc.Finish(atMs)
}

// pageOutcome is one way a fetched page leaves fetchOne: rejected by a
// pre-filter of Fig 2, or classified. A row names everything that exit
// writes — to the crawl state and to every pillar — so the writing itself
// happens once, in outcome.
type pageOutcome struct {
	// event is the trace event announcing the exit; verdict is its verdict
	// attr on classified pages ("" on rejections).
	event, verdict string
	// classified marks the classifier's two exits; false means a
	// pre-filter rejected the page.
	classified bool
	stat       func(*Stats) *int
	counter    func(*metrics) *obs.Counter
	// dbStatus is the URL's terminal CrawlDB status; traceStatus is the
	// status its lineage trace closes with.
	dbStatus    crawldb.Status
	traceStatus string
}

// The six exits: both length checks (too long before language
// identification, too short after it) leave through outLength.
var (
	outMIME = pageOutcome{event: "filter.mime", dbStatus: crawldb.Filtered, traceStatus: "filtered",
		stat:    func(s *Stats) *int { return &s.FilteredMIME },
		counter: func(m *metrics) *obs.Counter { return m.filterMIME }}
	outLength = pageOutcome{event: "filter.length", dbStatus: crawldb.Filtered, traceStatus: "filtered",
		stat:    func(s *Stats) *int { return &s.FilteredLength },
		counter: func(m *metrics) *obs.Counter { return m.filterLength }}
	outLang = pageOutcome{event: "filter.lang", dbStatus: crawldb.Filtered, traceStatus: "filtered",
		stat:    func(s *Stats) *int { return &s.FilteredLang },
		counter: func(m *metrics) *obs.Counter { return m.filterLang }}
	outRelevant = pageOutcome{event: "classify.verdict", verdict: "relevant", classified: true,
		dbStatus: crawldb.Fetched, traceStatus: "relevant",
		stat:    func(s *Stats) *int { return &s.Relevant },
		counter: func(m *metrics) *obs.Counter { return m.classifyRelevant }}
	outIrrelevant = pageOutcome{event: "classify.verdict", verdict: "irrelevant", classified: true,
		dbStatus: crawldb.Fetched, traceStatus: "irrelevant",
		stat:    func(s *Stats) *int { return &s.Irrelevant },
		counter: func(m *metrics) *obs.Counter { return m.classifyIrrelevant }}
)

// outcome is fetchOne's single exit: it fans one pageOutcome out to the
// stats, the metrics, the CrawlDB and the URL's trace. With tracing off
// it builds no attrs and allocates nothing.
func (c *Crawler) outcome(o *pageOutcome, url string, tc trace.Context, netTextLen int, prob float64) {
	*o.stat(&c.stats)++
	o.counter(c.m).Inc()
	c.db.SetStatus(url, o.dbStatus)
	now := c.nowMs()
	if tc.Active() {
		// The names are the table's constants; TraceName is how the name
		// lints admit a non-literal.
		switch {
		case o.classified:
			tc.Event(trace.TraceName(o.event), now,
				trace.String("verdict", o.verdict), trace.Float("prob", prob))
		case o == &outLength:
			tc.Event(trace.TraceName(o.event), now, trace.Int("net_text_len", int64(netTextLen)))
		default:
			tc.Event(trace.TraceName(o.event), now)
		}
	}
	c.finishTrace(tc, o.traceStatus, now)
}

// filterPage runs the pre-filters of Fig 2 and returns the outcome of the
// first one the page fails, or nil when the page goes on to the
// classifier. netText is empty only when the MIME filter stopped the page
// before extraction.
func (c *Crawler) filterPage(url string, body []byte) (netText string, rejected *pageOutcome) {
	// MIME filter (content-based detection, the Tika lesson of §5).
	if !mimetype.Detect(url, body).IsTextual() {
		return "", &outMIME
	}
	// Net-text extraction (Boilerpipe).
	netText = c.boiler.Extract(string(body)).NetText
	switch {
	case len(netText) > c.cfg.MaxNetTextLen:
		return netText, &outLength
	case !c.lang.IsEnglish(netText):
		return netText, &outLang
	case len(netText) < c.cfg.MinNetTextLen:
		return netText, &outLength
	}
	return netText, nil
}

func (c *Crawler) fetchOne(item crawldb.FetchItem) {
	rb, _ := c.web.Robots(item.Host)
	tc := c.traceOf(item.URL)
	if c.breakerRejects(item, tc) {
		return
	}
	attempt := c.db.Attempts(item.URL)
	at := tc.StartSpan("crawler.fetch.attempt", c.nowMs(), trace.Int("attempt", int64(attempt)))
	ph := c.pf.fetch.Enter()
	page, info, err := c.web.FetchAttempt(item.URL, attempt)
	ph.Exit()
	c.advanceClock(item.Host, rb.CrawlDelayMs, info.LatencyMs)
	if err != nil {
		at.End(c.nowMs())
		c.onFetchError(item, attempt, info, err, tc)
		return
	}
	if at.Active() {
		// The byte count is formatted eagerly: only a live span pays for it.
		at.Event("fetch.ok", c.nowMs(), trace.Int("bytes", int64(len(page.Body))))
		at.End(c.nowMs())
	}
	c.breakerAlive(item.Host, tc)
	c.stats.Fetched++
	c.m.fetchOK.Inc()
	c.m.fetchBytes.Add(int64(len(page.Body)))
	n := c.perHost[item.Host] + 1
	c.perHost[item.Host] = n
	if n == c.cfg.MaxPagesPerHost {
		// The host reached the spider-trap cap: inject rejects its links
		// from here on. The count reaches the cap once, so this logs once
		// per host.
		c.lg.frontier.Debug("frontier.trap", c.nowMs(), trace.String("host", item.Host))
	}

	ph = c.pf.filter.Enter()
	netText, o := c.filterPage(item.URL, page.Body)
	ph.Exit()
	var prob float64
	if o == nil {
		// Record the link structure of every parsed page.
		c.ldb.AddLinks(page.URL, page.Links)
		c.m.links.Add(int64(len(page.Links)))
		// Relevance classification on the extracted net text.
		ph = c.pf.classify.Enter()
		prob = c.clf.ProbRelevant(netText)
		o = &outIrrelevant
		if prob >= c.clf.Threshold || c.entityBoosts(netText, tc) {
			o = &outRelevant
		}
		c.selfTrain(netText, prob)
		ph.Exit()
	}
	c.outcome(o, item.URL, tc, len(netText), prob)
	if !o.classified {
		return
	}

	stored := CrawledPage{
		URL:          page.URL,
		NetText:      netText,
		Gold:         page.Doc,
		GoldRelevant: page.Relevant,
		Bytes:        len(page.Body),
	}
	// Links are followed from relevant pages at depth 0; tunnelling
	// follows them from irrelevant pages up to depth n-1.
	depth := 0
	if o == &outRelevant {
		c.stats.RelevantBytes += len(page.Body)
		c.relevant = append(c.relevant, stored)
	} else {
		c.stats.IrrelevantBytes += len(page.Body)
		c.irrelevant = append(c.irrelevant, stored)
		if depth = c.tunnelDepth[item.URL] + 1; depth >= c.cfg.Tunnelling {
			return
		}
	}
	for _, l := range page.Links {
		c.inject(l, depth)
	}
}

// entityBoosts is the §5 consolidated-process extension: the IE
// pipeline's dictionaries rescue a page the bag-of-words classifier
// rejected when its entity density is high enough.
func (c *Crawler) entityBoosts(netText string, tc trace.Context) bool {
	if !c.cfg.EntityBoost || c.matchers == nil || c.entityDensity(netText) < c.cfg.EntityBoostDensity {
		return false
	}
	c.stats.EntityBoosted++
	c.m.entityBoosted.Inc()
	tc.Event("classify.entity.boost", c.nowMs())
	return true
}

// selfTrain is the §2.1 incremental-update extension: confident
// decisions (beyond SelfTrainingMargin either way) are fed back into the
// model.
func (c *Crawler) selfTrain(netText string, prob float64) {
	if !c.cfg.SelfTraining {
		return
	}
	var label classify.Class
	switch margin := c.cfg.SelfTrainingMargin; {
	case prob >= 0.5+margin:
		label = classify.Relevant
	case prob <= 0.5-margin:
		label = classify.Irrelevant
	default:
		return
	}
	c.clf.Learn(netText, label)
	c.stats.SelfTrainUpdates++
	c.m.selfTrain.Inc()
}
