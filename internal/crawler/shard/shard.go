// Package shard runs the focused crawler horizontally partitioned, the
// way the paper's production crawl ran on a cluster (§4.1): the URL space
// is split by FNV host hash into S shards, each shard owns a complete
// crawler — its own frontier, CrawlDB, politeness clocks, circuit
// breakers, metric registry, trace recorder, and event-log sink — and the
// fleet advances in BSP-style rounds. Within a round every shard with
// pending work executes one generate/fetch/update cycle; links that leave
// a shard's host partition are not injected locally but queued as mail,
// and at the round barrier all mail is delivered in deterministic
// (destination, source, discovery) order.
//
// Because a host's URLs all hash to one shard, everything host-scoped —
// robots politeness, spider-trap guards, retry backoff, circuit breakers
// — stays shard-local by construction. Shards share only read-only state
// (the trained classifier, entity dictionaries); each gets a private
// *synthweb.Web (and generator) from the caller's factory, so no mutable
// state crosses a shard boundary. That isolation is what makes the degree
// of parallelism invisible: running the same S-shard plan with 1 worker
// or S workers executes identical per-shard histories, and the merged
// corpus, metrics, trace, and log exports are byte-identical — the
// property the determinism suite pins.
package shard

import (
	"fmt"
	"hash/fnv"
	"sync"

	"webtextie/internal/classify"
	"webtextie/internal/crawler"
	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
	"webtextie/internal/synthweb"
)

// Of returns the shard owning a host: FNV-1a over the host name, modulo
// the shard count. The assignment is a pure function of (host, shards) —
// independent of discovery order, stable across runs and resumes.
func Of(host string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(host))
	return int(h.Sum64() % uint64(shards))
}

// Config controls a sharded crawl.
type Config struct {
	// Crawl is the per-shard crawler configuration. MaxPages is the
	// fleet-wide budget: it is enforced at round barriers against the sum
	// of shard fetch counts, so the fleet may overshoot by at most one
	// round (<= Shards * FetchListSize pages).
	Crawl crawler.Config
	// Shards is the number of frontier partitions S. The partitioning is
	// part of the crawl plan: changing S changes which virtual clock each
	// host's fetches land on, so byte identity holds across degrees of
	// parallelism for a fixed S, not across different S.
	Shards int
	// Parallelism is the number of OS goroutines executing shard steps
	// within a round (the DoP). It bounds resource use only — any value
	// produces identical results. 0 means Shards.
	Parallelism int
}

// mail is one cross-shard frontier insertion, queued at discovery and
// delivered at the round barrier.
type mail struct {
	URL   string
	Depth int
}

// shardState is one shard of the fleet.
type shardState struct {
	idx int
	c   *crawler.Crawler
	web *synthweb.Web
	// outbox[d] holds this round's mail for shard d in discovery order.
	outbox [][]mail
}

// Runner drives a sharded crawl in rounds.
type Runner struct {
	cfg Config
	// shardCfg is the per-shard crawler config actually installed: cfg.Crawl
	// with MaxPages zeroed (the fleet budget is enforced at barriers).
	// RestartShard rebuilds crashed shards from it.
	shardCfg crawler.Config
	clf      *classify.NaiveBayes
	shards   []*shardState

	// fenced marks shards a supervisor removed from the fleet after their
	// recovery budget ran out; degraded records why. Fenced shards never
	// step again and mail addressed to them is dropped at barriers.
	fenced   []bool
	degraded []DegradedPartition

	// wiring remembers every per-shard pillar and extension attachment, in
	// the order the With* calls made them, so RestartShard can wire a
	// rebuilt shard the same way.
	wiring []func(*crawler.Crawler)

	// series is the fleet-level time-series recorder (nil = sampling
	// off): one sample per BSP round of the merged shard registries,
	// stamped on the fleet makespan clock. The recorder is runner-owned —
	// shard restarts never touch it — and the sample happens post-barrier
	// in EndRound, single-threaded, so the streams are identical at any
	// degree of parallelism.
	series *series.Recorder
	// resumeSeries remembers the fleet checkpoint's series snapshot for
	// WithSeries.
	resumeSeries *series.Snapshot

	rounds   int
	stopped  bool // fleet page budget reached
	finished bool // every frontier drained
}

// New builds a sharded crawl over Shards private webs from the factory.
// The factory must return identically-constructed, mutually independent
// webs (same config and seed, fresh generator per call) — each shard
// fetches only from its own instance, so the universes must agree and
// must not share mutable state. The classifier is shared read-only;
// SelfTraining is rejected because it would make shards race on model
// updates and break the DoP-independence contract.
func New(cfg Config, newWeb func() *synthweb.Web, clf *classify.NaiveBayes) (*Runner, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards = %d, want >= 1", cfg.Shards)
	}
	if cfg.Crawl.SelfTraining {
		return nil, fmt.Errorf("shard: %w", ErrSelfTraining)
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = cfg.Shards
	}
	r := newRunner(cfg, clf)
	for i := range r.shards {
		s := &shardState{idx: i, web: newWeb(), outbox: make([][]mail, cfg.Shards)}
		s.c = crawler.New(r.shardCfg, s.web, clf)
		r.installRouter(s)
		r.shards[i] = s
	}
	return r, nil
}

// newRunner builds the fleet shell New and Resume share. Callers fill in
// r.shards.
func newRunner(cfg Config, clf *classify.NaiveBayes) *Runner {
	shardCfg := cfg.Crawl
	shardCfg.MaxPages = 0 // the fleet budget is enforced at round barriers
	return &Runner{
		cfg:      cfg,
		shardCfg: shardCfg,
		clf:      clf,
		shards:   make([]*shardState, cfg.Shards),
		fenced:   make([]bool, cfg.Shards),
	}
}

// installRouter points a shard's crawler at the fleet: URLs whose host
// hashes elsewhere leave the local frontier path and queue as mail.
func (r *Runner) installRouter(s *shardState) {
	shards := r.cfg.Shards
	s.c.WithRouter(func(url, host string, depth int) bool {
		d := Of(host, shards)
		if d == s.idx {
			return false
		}
		s.outbox[d] = append(s.outbox[d], mail{URL: url, Depth: depth})
		return true
	})
}

// attach applies one piece of per-shard wiring to every shard and
// remembers it for RestartShard.
func (r *Runner) attach(wire func(*crawler.Crawler)) *Runner {
	r.wiring = append(r.wiring, wire)
	for _, s := range r.shards {
		wire(s.c)
	}
	return r
}

// WithTrace attaches one trace recorder per shard, all bounded by cfg.
// Shards trace disjoint URL populations, so per-shard recorders with the
// same seed mint non-colliding IDs; Finish merges the snapshots in shard
// order. On a resumed runner each recorder loads its shard's checkpoint
// snapshot. Returns the runner for chaining.
func (r *Runner) WithTrace(cfg trace.Config) *Runner {
	return r.attach(func(c *crawler.Crawler) { c.WithTrace(trace.NewRecorder(cfg)) })
}

// WithLog attaches one event-log sink per shard, all bounded by cfg.
// Finish merges the snapshots into one canonical export. On a resumed
// runner each sink loads its shard's checkpoint snapshot. Returns the
// runner for chaining.
func (r *Runner) WithLog(cfg evlog.Config) *Runner {
	return r.attach(func(c *crawler.Crawler) { c.WithLog(evlog.NewSink(cfg)) })
}

// WithSeries attaches a fleet-level time-series recorder: every round
// barrier folds the per-shard metric registries into one snapshot
// (obs.Snapshot.Merge in shard order) and records it as a single sample
// at the fleet makespan — the maximum shard virtual clock — plus the
// derived fleet harvest-rate series. Sampling runs post-barrier on one
// goroutine, so exports are byte-identical across DoP 1 vs N; on a
// resumed runner the fleet checkpoint's series snapshot is loaded first.
// Returns the runner for chaining.
func (r *Runner) WithSeries(cfg series.Config) *Runner {
	r.series = series.New(cfg)
	r.series.Load(r.resumeSeries)
	return r
}

// WithProf attaches one wall-clock stage profiler per shard, all with
// cfg. Each shard brackets its own stages and Finish folds the snapshots
// with prof.Merge, so the merged call counts are identical across DoP 1
// vs N for a fixed shard count and the merged wall time is busy time
// summed over shards. On a resumed runner each profiler loads its
// shard's checkpoint snapshot. Returns the runner for chaining.
func (r *Runner) WithProf(cfg prof.Config) *Runner {
	return r.attach(func(c *crawler.Crawler) { c.WithProf(prof.New(cfg)) })
}

// sampleSeries records one fleet sample at the current round barrier.
// Fenced shards still contribute: their last barrier state is genuinely
// part of the merged exports.
func (r *Runner) sampleSeries() {
	var merged obs.Snapshot
	var makespanMs int64
	var relevant, irrelevant int
	for i, s := range r.shards {
		if i == 0 {
			merged = s.c.MetricsSnapshot()
		} else {
			merged = merged.Merge(s.c.MetricsSnapshot())
		}
		st := s.c.CurrentStats()
		if st.VirtualMs > makespanMs {
			makespanMs = st.VirtualMs
		}
		relevant += st.Relevant
		irrelevant += st.Irrelevant
	}
	r.series.Sample(makespanMs, merged)
	rate := 0.0
	if relevant+irrelevant > 0 {
		rate = float64(relevant) / float64(relevant+irrelevant)
	}
	r.series.Observe("crawler.harvest.rate.docs", makespanMs, rate)
	r.series.Observe("fleet.rounds", makespanMs, float64(r.rounds))
}

// Shard returns shard i's crawler (tests inspect per-shard state).
// After RestartShard the previous crawler is gone — callers must not
// cache the pointer across rounds under supervision.
func (r *Runner) Shard(i int) *crawler.Crawler { return r.shards[i].c }

// Shards returns the partition count S.
func (r *Runner) Shards() int { return r.cfg.Shards }

// Rounds returns the number of completed rounds.
func (r *Runner) Rounds() int { return r.rounds }

// Seed partitions the seed list across shards by host hash, preserving
// list order within each shard. URLs that do not parse go to shard 0,
// whose injector discards them — the same silent drop an unsharded crawl
// applies.
func (r *Runner) Seed(seedURLs []string) {
	for _, u := range seedURLs {
		d := 0
		if host, _, err := synthweb.SplitURL(u); err == nil {
			d = Of(host, r.cfg.Shards)
		}
		r.shards[d].c.InjectURL(u, 0)
	}
}

// Round executes one fleet superstep — every shard with pending work runs
// one crawl cycle, then all cross-shard mail is delivered — and reports
// whether the crawl should continue. Steps run on up to Parallelism
// goroutines; shards touch no shared mutable state, so the interleaving
// cannot influence any shard's history.
//
// Round is the unsupervised path: a panic in any shard propagates and
// kills the whole fleet. The supervisor package composes the same
// primitives (Active, StepShard, DeliverMail, EndRound) with panic
// recovery and checkpoint-based restart instead.
func (r *Runner) Round() bool {
	if r.stopped || r.finished {
		return false
	}
	active := r.Active()
	if len(active) == 0 {
		r.finished = true
		return false
	}
	r.ParallelOver(active, func(i int) { r.shards[i].c.Step() })
	r.DeliverMail()
	return r.EndRound()
}

// Active returns the indices of shards that should step this round:
// unfenced, with pending frontier work. Ascending order.
func (r *Runner) Active() []int {
	var active []int
	for i, s := range r.shards {
		if !r.fenced[i] && s.c.Pending() > 0 {
			active = append(active, i)
		}
	}
	return active
}

// StepShard runs one crawl cycle on shard i, converting a panic anywhere
// in the cycle into an error. On panic the shard's crawler is left
// mid-cycle — internally inconsistent, holding partial state — and its
// outbox may hold mail from the aborted cycle; the outbox is cleared here
// (so no half-round mail ever leaks to the fleet) and the caller must
// either RestartShard from a checkpoint or Fence the shard before the
// fleet advances.
func (r *Runner) StepShard(i int) (err error) {
	s := r.shards[i]
	defer func() {
		if v := recover(); v != nil {
			for d := range s.outbox {
				s.outbox[d] = s.outbox[d][:0]
			}
			err = &StepPanicError{Shard: i, Value: v}
		}
	}()
	s.c.Step()
	return nil
}

// StepPanicError reports a panic captured inside one shard's crawl cycle.
type StepPanicError struct {
	Shard int
	Value any // the recovered panic value
}

func (e *StepPanicError) Error() string {
	return fmt.Sprintf("shard %d: step panicked: %v", e.Shard, e.Value)
}

// ParallelOver runs fn(i) for each listed shard index across the worker
// pool and barriers on completion. Shard indices are disjoint and shards
// share no mutable state, so fn invocations cannot race as long as each
// touches only its own shard.
func (r *Runner) ParallelOver(indices []int, fn func(i int)) {
	workers := r.cfg.Parallelism
	if workers > len(indices) {
		workers = len(indices)
	}
	if workers <= 1 {
		for _, i := range indices {
			fn(i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for _, i := range indices {
		work <- i
	}
	close(work)
	wg.Wait()
}

// BarrierCheckpoint freezes shard i silently — no trace mark, no
// checkpoint.saved record — and returns the serialized checkpoint. This
// is the supervisor's per-round restart point; it must not perturb the
// exports, or a supervised fault-free run would diverge from an
// unsupervised one.
func (r *Runner) BarrierCheckpoint(i int) ([]byte, error) {
	return r.shards[i].c.CheckpointSilent().Marshal()
}

// RestartShard discards shard i's crawler and rebuilds it from a
// serialized checkpoint taken by BarrierCheckpoint (or Checkpoint). The
// shard's web is reused — its only mutations (fetch counter, lazy page
// cache) are invisible to crawl output — and the fleet's router,
// matchers, trace recorder, and log sink are re-attached, with the
// recorder and sink reloading the checkpoint's snapshots. Because shard
// state is pure in (config, checkpoint), the rebuilt shard replays the
// rounds after the checkpoint exactly as the crashed one would have.
// Safe to call concurrently for distinct shards.
func (r *Runner) RestartShard(i int, ckpt []byte) error {
	cp, err := crawler.UnmarshalCheckpoint(ckpt)
	if err != nil {
		return fmt.Errorf("shard %d: restart: %w", i, err)
	}
	s := r.shards[i]
	c, err := crawler.Resume(r.shardCfg, s.web, r.clf, cp)
	if err != nil {
		return fmt.Errorf("shard %d: restart: %w", i, err)
	}
	s.c = c
	for d := range s.outbox {
		s.outbox[d] = s.outbox[d][:0]
	}
	r.installRouter(s)
	for _, wire := range r.wiring {
		wire(c)
	}
	return nil
}

// Fence permanently removes shard i from the fleet: it never steps
// again, mail addressed to it is dropped at barriers, and the loss is
// recorded so Result.Degraded reports the missing partition instead of
// silently shrinking the corpus. The caller should first RestartShard
// from the last good checkpoint so the fenced shard's contribution to
// the merged corpus is a consistent barrier state, not a half-stepped
// one.
func (r *Runner) Fence(i int) {
	if r.fenced[i] {
		return
	}
	r.fenced[i] = true
	r.degraded = append(r.degraded, DegradedPartition{
		Shard:         i,
		FencedAtRound: r.rounds,
		PendingLost:   r.shards[i].c.Pending(),
	})
}

// Fenced reports whether shard i has been fenced.
func (r *Runner) Fenced(i int) bool { return r.fenced[i] }

// DeliverMail drains every outbox in (destination, source, discovery)
// order — a fixed order, so frontier insertion sequences are identical
// across runs and degrees of parallelism. Mail addressed to a fenced
// shard is dropped; the count of dropped insertions is returned and
// accumulated on the destination's DegradedPartition record.
func (r *Runner) DeliverMail() int {
	dropped := 0
	for dst := range r.shards {
		for _, src := range r.shards {
			if r.fenced[dst] {
				if n := len(src.outbox[dst]); n > 0 {
					dropped += n
					r.addMailLost(dst, n)
				}
			} else {
				for _, m := range src.outbox[dst] {
					r.shards[dst].c.InjectURL(m.URL, m.Depth)
				}
			}
			src.outbox[dst] = src.outbox[dst][:0]
		}
	}
	return dropped
}

func (r *Runner) addMailLost(shard, n int) {
	for j := range r.degraded {
		if r.degraded[j].Shard == shard {
			r.degraded[j].MailLost += n
			return
		}
	}
}

// EndRound closes the current superstep: advances the round counter,
// enforces the fleet page budget, and checks whether any live shard
// still has work. Returns true if the crawl should continue.
func (r *Runner) EndRound() bool {
	r.rounds++
	if r.series != nil {
		r.sampleSeries()
	}
	if max := r.cfg.Crawl.MaxPages; max > 0 && r.totalFetched() >= max {
		r.stopped = true
		return false
	}
	for i, s := range r.shards {
		if !r.fenced[i] && s.c.Pending() > 0 {
			return true
		}
	}
	r.finished = true
	return false
}

// Done reports whether the crawl has ended (budget reached or all live
// frontiers drained).
func (r *Runner) Done() bool { return r.stopped || r.finished }

// MarkDrained records that the fleet found no active shard at round
// entry (supervised loops call this where Round sets finished).
func (r *Runner) MarkDrained() { r.finished = true }

// totalFetched sums fetched pages across the fleet (read at barriers).
// Fenced shards still count: their pages were genuinely fetched and are
// genuinely in the merged corpus.
func (r *Runner) totalFetched() int {
	total := 0
	for _, s := range r.shards {
		total += s.c.CurrentStats().Fetched
	}
	return total
}

// Run executes the sharded crawl to completion: seed, rounds until the
// budget or the frontiers end it, merge.
func (r *Runner) Run(seedURLs []string) *Result {
	r.Seed(seedURLs)
	for r.Round() {
	}
	return r.Finish()
}
