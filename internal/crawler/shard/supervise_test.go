package shard

import (
	"errors"
	"strings"
	"testing"

	"webtextie/internal/crawler"
)

// TestStepShardRecoversPanic: a panic inside a shard's crawl cycle
// surfaces as a StepPanicError and leaves no half-round mail behind.
func TestStepShardRecoversPanic(t *testing.T) {
	e := newEnv(t, 40, nil)
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 2, Parallelism: 1}
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.Seed(e.seeds)
	crashed := -1
	for _, i := range r.Active() {
		r.Shard(i).WithStepFault(func() { panic("tagger segfault") })
		err := r.StepShard(i)
		if err == nil {
			t.Fatalf("shard %d: armed panic did not surface", i)
		}
		var pe *StepPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("shard %d: error %T is not a StepPanicError", i, err)
		}
		if pe.Shard != i || pe.Value != "tagger segfault" {
			t.Errorf("shard %d: StepPanicError = %+v", i, pe)
		}
		if !strings.Contains(err.Error(), "step panicked") {
			t.Errorf("error text %q lacks panic context", err)
		}
		crashed = i
		break
	}
	if crashed < 0 {
		t.Fatal("no active shard to crash")
	}
	// The crashed shard fetched mid-cycle (the fault fires after the first
	// fetch) but its outbox must be empty: no half-round mail leaks.
	for d, box := range r.shards[crashed].outbox {
		if len(box) != 0 {
			t.Errorf("crashed shard kept %d mail items for shard %d", len(box), d)
		}
	}
}

// TestRestartShardReplaysIdentically is the determinism core of crash
// recovery: crash a shard of the identity fixture mid-run, roll it back
// to its barrier checkpoint, re-step, finish — every export of all five
// pillars must be byte-identical to the fault-free reference run.
func TestRestartShardReplaysIdentically(t *testing.T) {
	want := reference.run(t).ex
	e := fixtureEnv // built by the reference run
	r, err := New(reference.config(1), e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	reference.attach(r)
	r.Seed(e.seeds)
	ckpts := make([][]byte, r.Shards())
	refresh := func() {
		for i := range ckpts {
			if ckpts[i], err = r.BarrierCheckpoint(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	refresh()
	crashes := 0
	for {
		active := r.Active()
		if len(active) == 0 {
			r.MarkDrained()
			break
		}
		for _, i := range active {
			// Crash the first active shard of round 1, twice in a row —
			// recovery must also recover a crash of the recovered shard.
			if r.Rounds() == 1 && i == active[0] {
				for k := 0; k < 2; k++ {
					r.Shard(i).WithStepFault(func() { panic("boom") })
					if err := r.StepShard(i); err == nil {
						t.Fatal("armed panic did not surface")
					}
					crashes++
					if err := r.RestartShard(i, ckpts[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := r.StepShard(i); err != nil {
				t.Fatal(err)
			}
		}
		r.DeliverMail()
		if !r.EndRound() {
			break
		}
		refresh()
	}
	if crashes != 2 {
		t.Fatalf("staged 2 crashes, executed %d", crashes)
	}
	diffExports(t, "crash-recovered", want, exportsOf(t, r.Finish()))
}

// TestResumeSentinelErrors: the rejection paths return errors.Is-testable
// sentinels, wrapped with context.
func TestResumeSentinelErrors(t *testing.T) {
	e := newEnv(t, 30, nil)
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 2}
	cfg.Crawl.MaxPages = 60
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(e.seeds)
	cp, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	reshard := cfg
	reshard.Shards = 3
	if _, err := Resume(reshard, e.newWeb, e.clf, cp); !errors.Is(err, ErrReshard) {
		t.Errorf("resharding resume: err = %v, want ErrReshard", err)
	}

	selfTrain := cfg
	selfTrain.Crawl.SelfTraining = true
	if _, err := Resume(selfTrain, e.newWeb, e.clf, cp); !errors.Is(err, ErrSelfTraining) {
		t.Errorf("self-training resume: err = %v, want ErrSelfTraining", err)
	}
	if _, err := New(selfTrain, e.newWeb, e.clf); !errors.Is(err, ErrSelfTraining) {
		t.Errorf("self-training New: err = %v, want ErrSelfTraining", err)
	}

	short := *cp
	short.Crawlers = cp.Crawlers[:1]
	if _, err := Resume(cfg, e.newWeb, e.clf, &short); !errors.Is(err, ErrManifest) {
		t.Errorf("truncated manifest: err = %v, want ErrManifest", err)
	}
	bad := *cp
	bad.Fenced = []int{5}
	if _, err := Resume(cfg, e.newWeb, e.clf, &bad); !errors.Is(err, ErrManifest) {
		t.Errorf("out-of-range fence: err = %v, want ErrManifest", err)
	}
}

// TestFenceDegradesLoudly: fencing removes the shard from the fleet,
// drops (and counts) its mail, surfaces the loss on Result.Degraded and
// as a deg footer in the corpus manifest, and survives a fleet
// checkpoint round trip.
func TestFenceDegradesLoudly(t *testing.T) {
	e := newEnv(t, 60, nil)
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 3, Parallelism: 1}
	cfg.Crawl.FetchListSize = 40
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.Seed(e.seeds)
	if !r.Round() {
		t.Fatal("fleet drained in one round; cannot stage fencing")
	}

	victim := r.Active()[0]
	pendingLost := r.Shard(victim).Pending()
	r.Fence(victim)
	if !r.Fenced(victim) {
		t.Fatal("Fence did not mark the shard")
	}
	r.Fence(victim) // idempotent: no duplicate degraded record
	for _, i := range r.Active() {
		if i == victim {
			t.Fatal("fenced shard still listed active")
		}
	}

	dropped := 0
	for r.Round() {
		// Run the survivors down; Round's internal DeliverMail drops the
		// fenced shard's inbound mail silently, so re-count via the
		// degraded record below.
	}
	res := r.Finish()
	if len(res.Degraded) != 1 {
		t.Fatalf("Degraded = %+v, want exactly one record", res.Degraded)
	}
	d := res.Degraded[0]
	if d.Shard != victim || d.FencedAtRound != 1 || d.PendingLost != pendingLost {
		t.Errorf("degraded record %+v, want shard=%d fenced_at=1 pending_lost=%d",
			d, victim, pendingLost)
	}
	dropped = d.MailLost
	if res.Stats.FrontierEmptied {
		t.Error("degraded run claims an emptied frontier")
	}
	manifest := res.CorpusManifest()
	if !strings.Contains(manifest, "deg shard=") {
		t.Error("corpus manifest lacks the deg footer")
	}
	footer := manifest[strings.Index(manifest, "deg shard="):]
	if !strings.Contains(footer, "pending_lost=") || !strings.Contains(footer, "mail_lost=") {
		t.Errorf("deg footer %q lacks loss accounting", strings.TrimSpace(footer))
	}
	_ = dropped

	// Fenced state survives the fleet checkpoint round trip.
	cp, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Resume(cfg, e.newWeb, e.clf, cp2)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Fenced(victim) {
		t.Error("fence lost across checkpoint round trip")
	}
	res2 := r2.Finish()
	if len(res2.Degraded) != 1 || res2.Degraded[0].Shard != victim {
		t.Errorf("resumed Degraded = %+v, want the original record", res2.Degraded)
	}
}

// TestDeliverMailCountsDrops: mail addressed to a fenced shard is
// dropped and counted on its degraded record.
func TestDeliverMailCountsDrops(t *testing.T) {
	e := newEnv(t, 60, nil)
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 3, Parallelism: 1}
	cfg.Crawl.FetchListSize = 40
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.Seed(e.seeds)

	// Step every shard manually so outboxes are loaded, then fence one
	// destination before the barrier delivery.
	for _, i := range r.Active() {
		if err := r.StepShard(i); err != nil {
			t.Fatal(err)
		}
	}
	victim := -1
	queued := 0
	for dst := 0; dst < cfg.Shards; dst++ {
		n := 0
		for _, s := range r.shards {
			n += len(s.outbox[dst])
		}
		if n > 0 {
			victim, queued = dst, n
			break
		}
	}
	if victim < 0 {
		t.Skip("no cross-shard mail this round; cannot exercise drops")
	}
	pendingBefore := r.Shard(victim).Pending()
	r.Fence(victim)
	if got := r.DeliverMail(); got != queued {
		t.Errorf("DeliverMail dropped %d, want %d", got, queued)
	}
	if got := r.Shard(victim).Pending(); got != pendingBefore {
		t.Errorf("fenced shard's frontier grew: %d -> %d", pendingBefore, got)
	}
	if r.degraded[0].MailLost != queued {
		t.Errorf("MailLost = %d, want %d", r.degraded[0].MailLost, queued)
	}
}
