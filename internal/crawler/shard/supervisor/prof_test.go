package supervisor

import (
	"fmt"
	"strings"
	"testing"

	"webtextie/internal/obs/prof"
	"webtextie/internal/synthweb"
)

// callRows renders the deterministic half of a profile: one "scope
// calls" row per scope. crawl.checkpoint is left out — it counts the
// barrier checkpoints only a supervised run writes.
func callRows(s *prof.Snapshot) string {
	var b strings.Builder
	for _, sd := range s.Scopes {
		if sd.Name != "crawl.checkpoint" {
			fmt.Fprintf(&b, "%s %d\n", sd.Name, sd.Calls)
		}
	}
	return b.String()
}

// TestCrashRecoveryProfileByteIdentical: the profile pillar rides the
// fleet's recovery contract. A restarted shard rebuilds its crawler from
// the last checkpoint — whose profile snapshot restores the accumulators,
// dropping the crashed round's brackets — and replays the lost round, so
// a supervised run under a recovered crash schedule ends with the same
// call rows as the fault-free unsupervised run, at DoP 1 and 4.
func TestCrashRecoveryProfileByteIdentical(t *testing.T) {
	e := newEnv(t, 60, nil)
	ref := newFleet(t, e, fleetCfg(4, 1)).WithProf(prof.Config{}).Run(e.seeds)
	if ref.Profile == nil || len(ref.Profile.Scopes) == 0 {
		t.Fatal("reference fleet retained no profile")
	}
	if ref.Rounds < 3 {
		t.Fatalf("need >= 3 rounds to place the crash schedule, got %d", ref.Rounds)
	}
	crash := &synthweb.CrashPlan{Points: []synthweb.CrashPoint{
		{Shard: 0, Round: 1, Attempts: 1},
		{Shard: 1, Round: 2, Attempts: 1},
	}}
	for _, dop := range []int{1, 4} {
		fleet := newFleet(t, e, fleetCfg(4, dop)).WithProf(prof.Config{})
		sup := New(fleet, Config{RecoveryBudget: 3, Crash: crash, Seed: 7})
		res, err := sup.Run(e.seeds)
		if err != nil {
			t.Fatal(err)
		}
		if sup.Report().Crashes == 0 {
			t.Fatalf("DoP %d: crash schedule never fired", dop)
		}
		if got, want := callRows(res.Profile), callRows(ref.Profile); got != want {
			t.Errorf("DoP %d: supervised call rows diverge from fault-free run:\n--- fault-free\n%s\n--- recovered\n%s",
				dop, want, got)
		}
	}
}
