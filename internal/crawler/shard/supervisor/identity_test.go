package supervisor

import (
	"flag"
	"fmt"
	"testing"

	"webtextie/internal/crawler/shard"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/synthweb"
)

// The supervisor's determinism identities, each asserted once over every
// byte the fleet publishes with all five pillars on: supervision is
// invisible on a clean run, and a crash schedule whose recovery budget
// holds leaves the exports of the fault-free run — at DoP 1 and 4.

// fixture is one memoized run of the identity fleet: unsupervised (the
// fault-free reference), supervised on a clean run, or supervised under
// a crash schedule.
type fixture struct {
	supervised, crash bool
	dop               int
}

var reference = fixture{dop: 1}

type fixtureRun struct {
	ex  exports
	rep *Report
}

var (
	fixtureEnv *env
	// fixtureRuns memoizes each fixture's run across the tests of one
	// pass, so a run two tests need happens once. Under -count=N a run is
	// dropped when the test that made it ends, so every pass runs afresh.
	fixtureRuns = map[fixture]fixtureRun{}
	// fixtureCrashes staggers crashes over rounds 1 and 2 of the 4-shard
	// fleet and crashes one recovered shard again.
	fixtureCrashes = &synthweb.CrashPlan{Points: []synthweb.CrashPoint{
		{Shard: 0, Round: 1, Attempts: 1},
		{Shard: 2, Round: 1, Attempts: 2},
		{Shard: 1, Round: 2, Attempts: 1},
	}}
)

func (f fixture) run(t *testing.T) fixtureRun {
	t.Helper()
	if r, ok := fixtureRuns[f]; ok {
		return r
	}
	if fixtureEnv == nil {
		fixtureEnv = newEnv(t, 60, nil)
	}
	fleet := newFleet(t, fixtureEnv, fleetCfg(4, f.dop)).WithSeries(series.DefaultConfig()).WithProf(prof.Config{})
	var res *shard.Result
	var r fixtureRun
	if f.supervised {
		cfg := Config{RecoveryBudget: 3, Seed: 7}
		if f.crash {
			cfg.Crash = fixtureCrashes
		}
		sup := New(fleet, cfg)
		var err error
		if res, err = sup.Run(fixtureEnv.seeds); err != nil {
			t.Fatal(err)
		}
		r.rep = sup.Report()
	} else {
		res = fleet.Run(fixtureEnv.seeds)
		if res.Rounds < 3 {
			t.Fatalf("need >= 3 rounds to place the crash schedule, got %d", res.Rounds)
		}
	}
	r.ex = exportsOf(res)
	fixtureRuns[f] = r
	if flag.Lookup("test.count").Value.String() != "1" {
		t.Cleanup(func() { delete(fixtureRuns, f) })
	}
	return r
}

// TestSupervisedIdentity is every determinism identity of the supervisor.
func TestSupervisedIdentity(t *testing.T) {
	t.Run("clean", cleanIdentity)
	t.Run("crash", crashIdentity)
}

// cleanIdentity: with no faults, a supervised fleet's exports are the
// unsupervised fleet's — the silent barrier checkpoints leave no residue
// in any pillar — and its report is quiet.
func cleanIdentity(t *testing.T) {
	for _, dop := range []int{1, 4} {
		r := fixture{supervised: true, dop: dop}.run(t)
		diffExports(t, fmt.Sprintf("supervised DoP %d", dop), reference.run(t).ex, r.ex)
		if !r.rep.Quiet() {
			t.Errorf("DoP %d: clean run report not quiet: %+v", dop, r.rep)
		}
	}
}

// crashIdentity: under a crash schedule its recovery budget absorbs, the
// exports are the fault-free run's. A restarted shard rebuilds its
// crawler from the last barrier checkpoint, whose pillar snapshots drop
// the crashed round's records and brackets, and replays the lost round;
// the fleet series recorder is the runner's and never rebuilt.
func crashIdentity(t *testing.T) {
	for _, dop := range []int{1, 4} {
		r := fixture{supervised: true, crash: true, dop: dop}.run(t)
		diffExports(t, fmt.Sprintf("crash-recovered DoP %d", dop), reference.run(t).ex, r.ex)
		if r.rep.Crashes == 0 {
			t.Fatalf("DoP %d: crash schedule never fired", dop)
		}
		if len(r.rep.Fenced) != 0 {
			t.Errorf("DoP %d: budget 3 should recover everything, fenced %v", dop, r.rep.Fenced)
		}
		if r.rep.Restarts[0] == 0 || r.rep.Restarts[2] == 0 {
			t.Errorf("DoP %d: expected restarts on shards 0 and 2, got %v", dop, r.rep.Restarts)
		}
	}
}

// The per-pillar identity tests TestSupervisedIdentity replaced keep
// their names, each running the axis that now covers it, so a -run
// pattern or a document naming one still selects its assertion.

func TestSupervisionIsInvisibleOnCleanRuns(t *testing.T) { cleanIdentity(t) }
func TestCrashRecoveryByteIdentical(t *testing.T)        { crashIdentity(t) }
func TestCrashRecoveryProfileByteIdentical(t *testing.T) { crashIdentity(t) }
func TestCrashRecoverySeriesByteIdentical(t *testing.T)  { crashIdentity(t) }
