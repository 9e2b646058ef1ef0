package doctor

import (
	"reflect"
	"sort"
	"testing"

	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
)

// profWith builds a profile snapshot from per-scope data, keeping the
// name-sorted invariant the real Snapshot() maintains.
func profWith(scopes map[string]prof.ScopeData) *prof.Snapshot {
	s := &prof.Snapshot{}
	for name, sd := range scopes {
		sd.Name = name
		cp := sd
		s.Scopes = append(s.Scopes, &cp)
	}
	sort.Slice(s.Scopes, func(i, j int) bool { return s.Scopes[i].Name < s.Scopes[j].Name })
	return s
}

// skewed builds an input that holds only per-shard virtual clocks.
func skewed(ms ...int64) Input {
	return Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil)}, ShardVirtualMs: ms}
}

// checkpointed builds an input whose profile spends cpMs wall ms over
// calls checkpoints against cycMs ms of crawl cycles.
func checkpointed(cpMs, cycMs, calls int64) Input {
	return Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil), Profile: profWith(map[string]prof.ScopeData{
		"crawl.checkpoint": {Calls: calls, WallNs: cpMs * 1e6},
		"crawl.cycle":      {Calls: 100, WallNs: cycMs * 1e6},
	})}}
}

// costFirings holds both severity bands of each cost rule.
func costFirings() []firing {
	return []firing{
		// mean 13000, hot shard 40000: 3.1x — critical.
		{"critical", skewed(40_000, 4_000, 4_000, 4_000), "shard-cost-skew", Critical},
		// mean 5250, hot shard 9000: 1.7x — warning.
		{"warning", skewed(9_000, 4_000, 4_000, 4_000), "shard-cost-skew", Warning},
		// Shard 0 was fenced (-1): the three live shards average 340764,
		// so the hot one reads 2.2x — warning. Counting the fenced
		// shard's stopped clock read 2.9x, critical.
		{"fenced", skewed(-1, 740_217, 165_268, 116_808), "shard-cost-skew", Warning},
		// 300 / (300+600) = 33% — critical.
		{"critical", checkpointed(300, 600, 10), "checkpoint-overhead-dominance", Critical},
		// 150 / (150+850) = 15% — warning.
		{"warning", checkpointed(150, 850, 10), "checkpoint-overhead-dominance", Warning},
	}
}

// TestStageCostSkewFires checks both severity bands of shard-cost-skew
// over synthetic per-shard virtual clocks, and that a fenced shard is
// named by its own index but left out of the mean and the max.
func TestStageCostSkewFires(t *testing.T) {
	for _, tc := range costFirings() {
		if tc.wantRule != "shard-cost-skew" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			f := mustFire(t, tc)
			if tc.name != "fenced" {
				return
			}
			if want := "shard 1's virtual clock is 2.2x the fleet average"; f.Summary != want {
				t.Errorf("summary %q, want %q", f.Summary, want)
			}
			if want := "virtual ms per shard: [shard 0: fenced shard 1: 740217ms shard 2: 165268ms shard 3: 116808ms] (fleet total 1022293ms)"; f.Evidence[0] != want {
				t.Errorf("evidence %q, want %q", f.Evidence[0], want)
			}
		})
	}
}

// TestStageCostSkewStaysQuiet tables shard-cost-skew's non-firing
// shapes: balance, too little cost to judge, and a single shard (nothing
// to skew).
func TestStageCostSkewStaysQuiet(t *testing.T) {
	cases := []struct {
		name string
		ms   []int64
	}{
		{"balanced", []int64{12_000, 11_000, 13_000, 12_000}},
		{"below-min-ms", []int64{2_000, 100, 100, 100}},
		{"single-shard", []int64{50_000}},
		{"one-live-shard", []int64{-1, 50_000}},
		{"unsharded", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Diagnose(skewed(tc.ms...))
			for _, f := range rep.Findings {
				if f.Rule == "shard-cost-skew" {
					t.Errorf("shard-cost-skew fired: %+v", f)
				}
			}
		})
	}
}

// TestCheckpointOverheadDominance exercises the profile rule across its
// bands: warning and critical (costFirings), quiet, the minimum-calls
// floor, and no profile pillar.
func TestCheckpointOverheadDominance(t *testing.T) {
	const wantSource = "repeated checkpoints are the supervisor's silent per-round barrier checkpoints " +
		"(Runner.BarrierCheckpoint, one per shard per round): this is the wall time -supervise pays for crash recovery (see /profile)"
	for _, tc := range costFirings() {
		if tc.wantRule != "checkpoint-overhead-dominance" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			f := mustFire(t, tc)
			if got := f.Evidence[len(f.Evidence)-1]; got != wantSource {
				t.Errorf("evidence names %q, want %q", got, wantSource)
			}
		})
	}
	quiet := []struct {
		name string
		in   Input
	}{
		// 50 / (50+950) = 5% — below the floor.
		{"quiet", checkpointed(50, 950, 10)},
		// Dominant fraction but only 2 checkpoints: too few to judge.
		{"too-few-brackets", checkpointed(300, 600, 2)},
		{"no-profile", counts(nil, nil)},
	}
	for _, tc := range quiet {
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range Diagnose(tc.in).Findings {
				if f.Rule == "checkpoint-overhead-dominance" {
					t.Fatalf("rule fired on quiet input: %+v", f)
				}
			}
		})
	}
}

// TestProfRulesDeterministic renders the same profile diagnosis twice
// and demands identical bytes.
func TestProfRulesDeterministic(t *testing.T) {
	in := Input{
		Snapshot: pillars.Snapshot{
			Metrics: metricsWith(nil, nil),
			Profile: profWith(map[string]prof.ScopeData{
				"crawl.checkpoint": {Calls: 8, WallNs: 400e6},
				"crawl.cycle":      {Calls: 64, WallNs: 700e6},
			}),
		},
		ShardVirtualMs: []int64{33_000, 5_000, 5_000, 5_000},
	}
	a, b := Diagnose(in), Diagnose(in)
	if a.Text() != b.Text() {
		t.Errorf("diagnosis text not deterministic:\n%s\nvs\n%s", a.Text(), b.Text())
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("diagnosis not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
