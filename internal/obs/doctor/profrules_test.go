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

// TestStageCostSkewFires checks both severity bands of shard-cost-skew
// over synthetic per-shard virtual clocks.
func TestStageCostSkewFires(t *testing.T) {
	cases := []struct {
		name    string
		ms      []int64
		wantSev Severity
	}{
		// mean 13000, hot shard 40000: 3.1x — critical.
		{"critical", []int64{40_000, 4_000, 4_000, 4_000}, Critical},
		// mean 5250, hot shard 9000: 1.7x — warning.
		{"warning", []int64{9_000, 4_000, 4_000, 4_000}, Warning},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Diagnose(Input{
				Snapshot:       pillars.Snapshot{Metrics: metricsWith(nil, nil)},
				ShardVirtualMs: tc.ms,
			})
			var found *Finding
			for i := range rep.Findings {
				if rep.Findings[i].Rule == "shard-cost-skew" {
					found = &rep.Findings[i]
					break
				}
			}
			if found == nil {
				t.Fatalf("shard-cost-skew did not fire; findings: %+v", rep.Findings)
			}
			if found.Severity != tc.wantSev {
				t.Errorf("severity = %v, want %v", found.Severity, tc.wantSev)
			}
			if found.Score <= 0 || found.Score > 1 {
				t.Errorf("score %v outside (0,1]", found.Score)
			}
			if len(found.Evidence) == 0 {
				t.Errorf("finding has no evidence")
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
		{"unsharded", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil)}, ShardVirtualMs: tc.ms})
			for _, f := range rep.Findings {
				if f.Rule == "shard-cost-skew" {
					t.Errorf("shard-cost-skew fired: %+v", f)
				}
			}
		})
	}
}

// TestCheckpointOverheadDominance exercises the profile rule across its
// bands: quiet, warning, critical, and the minimum-calls floor.
func TestCheckpointOverheadDominance(t *testing.T) {
	mk := func(cpMs, cycMs, calls int64) *prof.Snapshot {
		return profWith(map[string]prof.ScopeData{
			"crawl.checkpoint": {Calls: calls, WallNs: cpMs * 1e6},
			"crawl.cycle":      {Calls: 100, WallNs: cycMs * 1e6},
		})
	}
	cases := []struct {
		name    string
		prof    *prof.Snapshot
		wantSev Severity
		fire    bool
	}{
		// 300 / (300+600) = 33% — critical.
		{"critical", mk(300, 600, 10), Critical, true},
		// 150 / (150+850) = 15% — warning.
		{"warning", mk(150, 850, 10), Warning, true},
		// 50 / (50+950) = 5% — below the floor.
		{"quiet", mk(50, 950, 10), Note, false},
		// Dominant fraction but only 2 checkpoints: too few to judge.
		{"too-few-brackets", mk(300, 600, 2), Note, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil), Profile: tc.prof}})
			var found *Finding
			for i := range rep.Findings {
				if rep.Findings[i].Rule == "checkpoint-overhead-dominance" {
					found = &rep.Findings[i]
					break
				}
			}
			if found == nil {
				if tc.fire {
					t.Fatalf("rule did not fire; findings: %+v", rep.Findings)
				}
				return
			}
			if !tc.fire {
				t.Fatalf("rule fired on quiet input: %+v", found)
			}
			if found.Severity != tc.wantSev {
				t.Errorf("severity = %v, want %v", found.Severity, tc.wantSev)
			}
			const wantSource = "repeated checkpoints are the supervisor's silent per-round barrier checkpoints " +
				"(Runner.BarrierCheckpoint, one per shard per round): this is the wall time -supervise pays for crash recovery (see /profile)"
			if got := found.Evidence[len(found.Evidence)-1]; got != wantSource {
				t.Errorf("evidence names %q, want %q", got, wantSource)
			}
		})
	}
	// Without the pillar the rule cannot fire.
	rep := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil)}})
	for _, f := range rep.Findings {
		if f.Rule == "checkpoint-overhead-dominance" {
			t.Errorf("checkpoint-overhead-dominance fired without the profile pillar")
		}
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
