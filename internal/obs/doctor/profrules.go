package doctor

import (
	"fmt"
	"strconv"
)

// Cost rules: where the budget went, not just what happened. The two
// rules here diagnose pathologies the counter pillars cannot see — a
// fleet whose shard clocks are lopsided, and a crawl whose real time is
// eaten by checkpointing rather than crawling. The first reads the
// per-shard virtual clocks; the second degrades to silence without the
// profile pillar.

// skewMinFleetMs is the fewest virtual milliseconds the shard clocks
// must add up to before the skew rule judges them; below that, skew is
// noise from a handful of fetches.
const skewMinFleetMs = 10_000

// profMinCheckpointCalls is the fewest checkpoint brackets the overhead
// rule needs; one or two checkpoints say nothing about a steady-state
// overhead.
const profMinCheckpointCalls = 3

// fmtX renders a skew multiplier with one decimal so summaries stay
// byte-stable.
func fmtX(v float64) string {
	return strconv.FormatFloat(v, 'f', 1, 64) + "x"
}

// shardCostSkew fires when one shard's virtual clock runs far ahead of
// the fleet average — the host-hash partition is unbalanced (one shard
// owns the slow or link-dense hosts), so the fleet's makespan is pinned
// to its most loaded member. Stats.VirtualMs already reports the
// makespan; this rule names the shard responsible for it. Fenced shards
// (negative entries) stopped their clocks at a barrier checkpoint, so
// they stay out of the mean and the max, as the supervisor's stall
// detection leaves them out.
func shardCostSkew(in Input) []Finding {
	var total, max int64
	live, maxShard := 0, 0
	perShard := make([]string, len(in.ShardVirtualMs))
	for i, ms := range in.ShardVirtualMs {
		if ms < 0 {
			perShard[i] = fmt.Sprintf("shard %d: fenced", i)
			continue
		}
		live++
		total += ms
		if ms > max {
			max, maxShard = ms, i
		}
		perShard[i] = fmt.Sprintf("shard %d: %dms", i, ms)
	}
	if live < 2 || total < skewMinFleetMs {
		return nil
	}
	skew := float64(max) / (float64(total) / float64(live))
	if skew < 1.5 {
		return nil
	}
	sev := Warning
	if skew >= 2.5 {
		sev = Critical
	}
	return []Finding{{
		Rule:     "shard-cost-skew",
		Severity: sev,
		// How much of a perfectly balanced fleet's headroom the hot shard
		// consumed, in [0,1] by construction (skew ranges over [1, live]).
		Score:   (skew - 1) / float64(live-1),
		Summary: fmt.Sprintf("shard %d's virtual clock is %s the fleet average", maxShard, fmtX(skew)),
		Evidence: []string{
			fmt.Sprintf("virtual ms per shard: %v (fleet total %dms)", perShard, total),
			"an unbalanced host-hash partition pins the fleet makespan to its hottest shard",
		},
	}}
}

// checkpointOverheadDominance fires when the wall-clock time spent
// writing checkpoints rivals the wall-clock time spent crawling. Repeated
// crawl.checkpoint brackets come only from the supervisor's silent
// per-round barrier checkpoints (Runner.BarrierCheckpoint →
// Crawler.CheckpointSilent, one per shard per round; -checkpoint writes
// one), so a firing rule prices supervision's restart points. Virtual
// time cannot see this:
// checkpointing is free on the simulated clock, so only the wall-clock
// profiler exposes it.
func checkpointOverheadDominance(in Input) []Finding {
	cp := in.profScope("crawl.checkpoint")
	cyc := in.profScope("crawl.cycle")
	if cp == nil || cyc == nil || cp.Calls < profMinCheckpointCalls ||
		cyc.WallNs <= 0 || cp.WallNs <= 0 {
		return nil
	}
	frac := float64(cp.WallNs) / float64(cp.WallNs+cyc.WallNs)
	if frac < 0.10 {
		return nil
	}
	sev := Warning
	if frac >= 0.25 {
		sev = Critical
	}
	return []Finding{{
		Rule:     "checkpoint-overhead-dominance",
		Severity: sev,
		Score:    frac,
		Summary: fmt.Sprintf("checkpointing consumed %s of crawl wall-clock time over %d snapshots",
			pct(cp.WallNs, cp.WallNs+cyc.WallNs), cp.Calls),
		Evidence: []string{
			fmt.Sprintf("profile: crawl.checkpoint=%dms over %d calls vs crawl.cycle=%dms over %d calls",
				cp.WallNs/1e6, cp.Calls, cyc.WallNs/1e6, cyc.Calls),
			"repeated checkpoints are the supervisor's silent per-round barrier checkpoints (Runner.BarrierCheckpoint, one per shard per round): this is the wall time -supervise pays for crash recovery (see /profile)",
		},
	}}
}
