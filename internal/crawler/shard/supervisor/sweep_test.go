package supervisor

import (
	"fmt"
	"testing"

	"webtextie/internal/crawler/shard"
	"webtextie/internal/synthweb"
)

// TestCrashSweepEveryShardEveryRound is the exhaustive recovery
// property: for EVERY (shard, round) crash point in the run, the
// recovered exports are byte-identical to the fault-free run — at DoP 1
// and at full DoP. No crash point is special: the first round (no prior
// round's checkpoint refresh), budget-stopping rounds, and drain rounds
// all recover through the same rollback. Every point is swept, so the
// fleet is the smallest that still runs several rounds: ten-page fetch
// lists on a 90-page budget from 1,000 seeds.
func TestCrashSweepEveryShardEveryRound(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is the long chaos gate; run without -short")
	}
	const shards = 3
	sweepCfg := func(dop int) shard.Config {
		cfg := fleetCfg(shards, dop)
		cfg.Crawl.MaxPages = 90
		cfg.Crawl.FetchListSize = 10
		return cfg
	}
	e := newEnv(t, 50, nil)
	e.seeds = e.seeds[:1000] // each barrier checkpoint spells every known URL
	res := newFleet(t, e, sweepCfg(1)).Run(e.seeds)
	if res.Rounds < 3 {
		t.Fatalf("need >= 3 rounds for a meaningful sweep, got %d", res.Rounds)
	}
	base := exportsOf(res)
	for round := 0; round < res.Rounds; round++ {
		for s := 0; s < shards; s++ {
			crash := &synthweb.CrashPlan{Points: []synthweb.CrashPoint{
				{Shard: s, Round: round, Attempts: 1},
			}}
			for _, dop := range []int{1, shards} {
				label := fmt.Sprintf("crash(shard=%d, round=%d) DoP %d", s, round, dop)
				got, rep, _ := runSupervised(t, e, sweepCfg(dop),
					Config{RecoveryBudget: 1, Crash: crash, Seed: 7})
				// A shard with no pending work in the crash round never
				// steps, so the point never fires — still must match.
				if rep.Crashes > 1 {
					t.Fatalf("%s: single point fired %d times", label, rep.Crashes)
				}
				if len(rep.Fenced) != 0 {
					t.Fatalf("%s: recovery fenced %v", label, rep.Fenced)
				}
				diffExports(t, label, base, got)
				if t.Failed() {
					return // first divergence is enough; don't flood the log
				}
			}
		}
	}
}
