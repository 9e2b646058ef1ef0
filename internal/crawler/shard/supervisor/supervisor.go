// Package supervisor makes the shard fleet self-healing. The plain
// shard.Runner has the monolithic failure mode the paper's production
// crawl could not afford: one shard panicking mid-step — a tagger
// segfaulting on a degenerate page (§5), a worker OOM-killed (§4.1) —
// aborts the whole ~1M-page run. The supervisor wraps the same round
// primitives (Active, StepShard, DeliverMail, EndRound) with three
// layers of fault tolerance:
//
//   - Crash recovery. Every shard step runs behind panic isolation
//     (shard.StepShard). On a crash the shard is rolled back to its last
//     barrier checkpoint — taken silently every round, so supervision
//     never perturbs the exports — and the step is re-executed. Shard
//     state is pure in (config, checkpoint), so the replayed step
//     produces exactly the history the crashed one would have: a
//     recovered run's merged corpus, metrics, trace, and log exports are
//     byte-identical to a fault-free run's, at any degree of parallelism.
//
//   - Stall detection. Shards advance private virtual clocks; a shard
//     whose per-round clock advance exceeds StallFactor times the fleet
//     median is flagged a straggler. Virtual time cannot hang, so this
//     is detection-only: a shard.stall event through all three pillars,
//     feeding the doctor, never a restart.
//
//   - Degraded completion. Each shard has a bounded recovery budget.
//     When a poisoned shard crashes past it, the shard is rolled back to
//     its barrier state one last time and fenced: it never steps again,
//     mail addressed to it is dropped (and counted), and the run
//     finishes with the surviving partitions. The missing host-hash
//     partitions are recorded on Result.Degraded, which cmd/crawl
//     reports — the corpus shrinks loudly, never silently.
//
// Supervision has its own three observability pillars (a fleet.* metric
// registry, a trace recorder for shard.crash/restart/stall/fenced marks,
// an event-log sink under component fleet.supervisor), kept separate
// from the crawl pillars: the crawl exports must stay byte-identical to
// an unsupervised run's, while the supervision exports describe the
// faults. Callers merge the two views only for diagnosis (crawl-doctor).
//
// Injected faults come from synthweb.CrashPlan — shard s panics mid-step
// at round r for its first k attempts, pure in the plan seed — so chaos
// runs are replayable bit for bit.
package supervisor

import (
	"fmt"
	"sort"

	"webtextie/internal/crawler/shard"
	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/trace"
	"webtextie/internal/synthweb"
)

// DefaultRecoveryBudget is the per-shard restart allowance cmd/crawl
// defaults to.
const DefaultRecoveryBudget = 3

// Config controls fleet supervision.
type Config struct {
	// RecoveryBudget is the maximum number of checkpoint restarts a
	// single shard is granted over the whole run. A shard that crashes
	// after exhausting it is fenced. 0 means fence on the first crash.
	RecoveryBudget int
	// StallFactor flags a shard as stalled when its per-round virtual
	// clock advance exceeds StallFactor times the fleet median advance.
	// 0 disables stall detection; values below ~2 are noisy.
	StallFactor float64
	// Crash is the injected shard-crash schedule (nil or empty: no
	// injection — real panics are still recovered).
	Crash *synthweb.CrashPlan
	// Seed seeds the supervision trace and log pillars.
	Seed uint64
}

// Supervisor drives a shard.Runner with crash recovery, stall detection,
// and degraded-mode completion. Not safe for concurrent use.
type Supervisor struct {
	r   *shard.Runner
	cfg Config

	// Supervision pillars (metrics, trace, log) — separate from the crawl
	// pillars so crash recovery leaves the crawl exports byte-identical to
	// a fault-free run while still recording every fault.
	p  pillars.Set
	lg evlog.Logger

	crashesC  *obs.Counter
	restartsC *obs.Counter
	stallsC   *obs.Counter
	fencedC   *obs.Counter
	droppedC  *obs.Counter
	roundsC   *obs.Counter

	restarts []int    // cumulative restarts per shard
	stalls   []int    // cumulative stall flags per shard
	crashes  int      // total panics observed (injected or real)
	dropped  int      // total mail insertions dropped at fenced shards
	ckpts    [][]byte // last barrier checkpoint per shard
	outcomes []stepOutcome
	primed   bool // barrier checkpoints exist for round 0
}

// stepOutcome is one shard's step result for the current round, written
// by its worker goroutine and read post-barrier in shard order.
type stepOutcome struct {
	crashes  []string // panic messages, attempt order
	restarts int      // recoveries performed this round
	fence    error    // non-nil: recovery budget exhausted, fence post-barrier
}

// New wraps a runner in a supervisor. Attach the runner's observability
// (WithTrace/WithLog) before supervising: restarts re-wire whatever is
// installed at the time of the crash.
func New(r *shard.Runner, cfg Config) *Supervisor {
	n := r.Shards()
	s := &Supervisor{
		r:   r,
		cfg: cfg,
		p: pillars.Set{
			Metrics: obs.New(),
			Trace:   trace.NewRecorder(trace.DefaultConfig(cfg.Seed)),
			Log:     evlog.NewSink(evlog.DefaultConfig(cfg.Seed)),
		},
		restarts: make([]int, n),
		stalls:   make([]int, n),
		ckpts:    make([][]byte, n),
		outcomes: make([]stepOutcome, n),
	}
	s.lg = s.p.Log.Logger("fleet.supervisor")
	s.crashesC = s.p.Metrics.Counter("fleet.shard.crashes")
	s.restartsC = s.p.Metrics.Counter("fleet.shard.restarts")
	s.stallsC = s.p.Metrics.Counter("fleet.shard.stalls")
	s.fencedC = s.p.Metrics.Counter("fleet.shard.fenced")
	s.droppedC = s.p.Metrics.Counter("fleet.mail.dropped")
	s.roundsC = s.p.Metrics.Counter("fleet.rounds")
	return s
}

// Round executes one supervised fleet superstep and reports whether the
// crawl should continue. The error path is exceptional (a checkpoint
// that cannot marshal, a restart that cannot resume) — injected crashes
// and budget exhaustion are handled, not returned.
func (s *Supervisor) Round() (bool, error) {
	if s.r.Done() {
		return false, nil
	}
	if !s.primed {
		if err := s.refreshCheckpoints(s.allShards()); err != nil {
			return false, err
		}
		s.primed = true
	}
	active := s.r.Active()
	if len(active) == 0 {
		s.r.MarkDrained()
		return false, nil
	}
	round := s.r.Rounds()
	before := s.clocks()

	// Step every active shard behind panic isolation, recovering inside
	// the worker: each worker touches only its own shard's state and
	// outcome slot, so recovery parallelizes exactly like clean steps.
	s.r.ParallelOver(active, func(i int) {
		s.outcomes[i] = s.stepWithRecovery(i, round)
	})

	// Post-barrier bookkeeping runs in ascending shard order with a
	// fleet-makespan timestamp, so supervision events are identical at
	// every degree of parallelism.
	now := s.makespan()
	for _, i := range active {
		o := &s.outcomes[i]
		for k, msg := range o.crashes {
			s.crashes++
			s.crashesC.Inc()
			s.lg.Warn("shard.crash", now,
				trace.Int("shard", int64(i)),
				trace.Int("round", int64(round)),
				trace.Int("attempt", int64(k)),
				trace.String("panic", msg))
		}
		if o.restarts > 0 {
			s.restarts[i] += o.restarts
			s.restartsC.Add(int64(o.restarts))
			s.p.Trace.Mark("shard.restart", now,
				trace.Int("shard", int64(i)),
				trace.Int("round", int64(round)),
				trace.Int("restarts", int64(o.restarts)))
			s.lg.Warn("shard.restart", now,
				trace.Int("shard", int64(i)),
				trace.Int("round", int64(round)),
				trace.Int("restarts", int64(o.restarts)),
				trace.Int("budget_left", int64(s.cfg.RecoveryBudget-s.restarts[i])))
		}
		if o.fence != nil {
			s.r.Fence(i)
			s.fencedC.Inc()
			s.p.Trace.Mark("shard.fenced", now,
				trace.Int("shard", int64(i)),
				trace.Int("round", int64(round)))
			s.lg.Error("shard.fenced", now,
				trace.Int("shard", int64(i)),
				trace.Int("round", int64(round)),
				trace.Int("restarts", int64(s.restarts[i])),
				trace.String("cause", o.fence.Error()))
		}
		o.crashes, o.restarts, o.fence = nil, 0, nil
	}
	s.detectStalls(active, before, round, now)

	if n := s.r.DeliverMail(); n > 0 {
		s.dropped += n
		s.droppedC.Add(int64(n))
		s.lg.Warn("shard.mail.dropped", now,
			trace.Int("round", int64(round)),
			trace.Int("dropped", int64(n)))
	}
	cont := s.r.EndRound()
	s.roundsC.Inc()
	if cont {
		// Refresh the restart points: the barrier state (post-mail) is
		// what a crash next round rolls back to.
		if err := s.refreshCheckpoints(s.liveShards()); err != nil {
			return false, err
		}
	}
	return cont, nil
}

// stepWithRecovery steps shard i, restarting from the barrier checkpoint
// on each panic until the step succeeds or the shard's recovery budget
// runs out. Runs on a worker goroutine; touches only shard i's state.
func (s *Supervisor) stepWithRecovery(i, round int) stepOutcome {
	var o stepOutcome
	for attempt := 0; ; attempt++ {
		s.armCrash(i, round, attempt)
		err := s.r.StepShard(i)
		if err == nil {
			return o
		}
		o.crashes = append(o.crashes, err.Error())
		exhausted := s.restarts[i]+o.restarts >= s.cfg.RecoveryBudget
		// Roll back to the barrier state either way: a retry replays
		// from it, and a fenced shard must contribute a consistent
		// barrier state to the merged corpus, not a half-stepped one.
		if rerr := s.r.RestartShard(i, s.ckpts[i]); rerr != nil {
			o.fence = fmt.Errorf("restart failed after %v: %w", err, rerr)
			return o
		}
		if exhausted {
			o.fence = err
			return o
		}
		o.restarts++
	}
}

// armCrash installs (or clears) the injected mid-step panic for this
// attempt. The schedule is pure in (plan, shard, round, attempt), so
// chaos runs replay identically at any degree of parallelism.
func (s *Supervisor) armCrash(i, round, attempt int) {
	if s.cfg.Crash.Empty() {
		return
	}
	c := s.r.Shard(i)
	if s.cfg.Crash.Crashes(i, round, attempt) {
		c.WithStepFault(func() {
			panic(fmt.Sprintf("injected crash: shard %d round %d attempt %d", i, round, attempt))
		})
	} else {
		c.WithStepFault(nil)
	}
}

// detectStalls compares each active shard's per-round virtual-clock
// advance against the fleet median and records stragglers. Fenced
// shards are excluded — their clocks were rolled back, not stalled.
func (s *Supervisor) detectStalls(active []int, before []int64, round int, now int64) {
	if s.cfg.StallFactor <= 0 {
		return
	}
	after := s.clocks()
	var deltas []int64
	for _, i := range active {
		if !s.r.Fenced(i) {
			deltas = append(deltas, after[i]-before[i])
		}
	}
	if len(deltas) < 2 {
		return // a lone shard has no fleet to straggle behind
	}
	sorted := append([]int64(nil), deltas...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	median := sorted[len(sorted)/2]
	if median <= 0 {
		return
	}
	deadline := int64(s.cfg.StallFactor * float64(median))
	for _, i := range active {
		if s.r.Fenced(i) {
			continue
		}
		if d := after[i] - before[i]; d > deadline {
			s.stalls[i]++
			s.stallsC.Inc()
			s.p.Trace.Mark("shard.stall", now,
				trace.Int("shard", int64(i)),
				trace.Int("round", int64(round)),
				trace.Int("advance_ms", d),
				trace.Int("median_ms", median))
			s.lg.Warn("shard.stall", now,
				trace.Int("shard", int64(i)),
				trace.Int("round", int64(round)),
				trace.Int("advance_ms", d),
				trace.Int("median_ms", median))
		}
	}
}

// refreshCheckpoints takes a silent barrier checkpoint of each listed
// shard, in parallel (disjoint slots).
func (s *Supervisor) refreshCheckpoints(indices []int) error {
	errs := make([]error, s.r.Shards())
	s.r.ParallelOver(indices, func(i int) {
		s.ckpts[i], errs[i] = s.r.BarrierCheckpoint(i)
	})
	for _, i := range indices {
		if errs[i] != nil {
			return fmt.Errorf("supervisor: checkpointing shard %d: %w", i, errs[i])
		}
	}
	return nil
}

func (s *Supervisor) allShards() []int {
	out := make([]int, s.r.Shards())
	for i := range out {
		out[i] = i
	}
	return out
}

func (s *Supervisor) liveShards() []int {
	var out []int
	for i := 0; i < s.r.Shards(); i++ {
		if !s.r.Fenced(i) {
			out = append(out, i)
		}
	}
	return out
}

// clocks returns each shard's current virtual-clock reading.
func (s *Supervisor) clocks() []int64 {
	out := make([]int64, s.r.Shards())
	for i := range out {
		out[i] = s.r.Shard(i).CurrentStats().VirtualMs
	}
	return out
}

// makespan returns the fleet's parallel makespan — the slowest shard's
// virtual clock. Supervision events are stamped with it: deterministic,
// monotone per round, independent of the degree of parallelism.
func (s *Supervisor) makespan() int64 {
	var max int64
	for _, ms := range s.clocks() {
		if ms > max {
			max = ms
		}
	}
	return max
}
