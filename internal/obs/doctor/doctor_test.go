package doctor

import (
	"reflect"
	"strings"
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
)

// metricsWith builds a metric snapshot from literal counter/gauge maps.
func metricsWith(counters map[string]int64, gauges map[string]int64) obs.Snapshot {
	if counters == nil {
		counters = map[string]int64{}
	}
	if gauges == nil {
		gauges = map[string]int64{}
	}
	return obs.Snapshot{Counters: counters, Gauges: gauges}
}

func TestHealthyReport(t *testing.T) {
	rep := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil)}})
	if !rep.Healthy {
		t.Fatalf("empty input should be healthy, got %d findings", len(rep.Findings))
	}
	if got := rep.Text(); got != "crawl doctor: healthy\n" {
		t.Errorf("Text() = %q", got)
	}
}

// TestRulesFire tables one triggering input per rule family and checks
// the expected rule lands at the expected severity.
func TestRulesFire(t *testing.T) {
	cases := []struct {
		name     string
		counters map[string]int64
		gauges   map[string]int64
		wantRule string
		wantSev  Severity
	}{
		{
			name: "harvest-collapse",
			counters: map[string]int64{
				"crawler.classify.relevant":   5,
				"crawler.classify.irrelevant": 95,
			},
			wantRule: "harvest-collapse", wantSev: Critical,
		},
		{
			name:     "breaker-storm-warning-when-all-closed",
			counters: map[string]int64{"crawler.breaker.opened": 3},
			wantRule: "breaker-storm", wantSev: Warning,
		},
		{
			name:     "breaker-storm-critical-when-open-now",
			counters: map[string]int64{"crawler.breaker.opened": 3},
			gauges:   map[string]int64{"crawler.breaker.open.hosts": 2},
			wantRule: "breaker-storm", wantSev: Critical,
		},
		{
			name: "dead-hosts",
			counters: map[string]int64{
				"crawler.fetch.hostdown": 30,
				"crawler.fetch.errors":   60,
			},
			wantRule: "dead-hosts", wantSev: Warning,
		},
		{
			name: "spider-trap",
			counters: map[string]int64{
				"crawler.frontier.trap":    400,
				"crawler.links.discovered": 1000,
			},
			wantRule: "spider-trap", wantSev: Warning,
		},
		{
			name: "retry-churn",
			counters: map[string]int64{
				"crawler.retry.scheduled": 80,
				"crawler.fetch.ok":        100,
			},
			wantRule: "retry-churn", wantSev: Warning,
		},
		{
			name: "rate-limit-pressure",
			counters: map[string]int64{
				"crawler.fetch.ratelimited": 50,
				"crawler.fetch.ok":          100,
			},
			wantRule: "rate-limit-pressure", wantSev: Note,
		},
		{
			name: "filter-dominance",
			counters: map[string]int64{
				"crawler.filter.mime":   10,
				"crawler.filter.lang":   45,
				"crawler.filter.length": 20,
				"crawler.fetch.ok":      100,
			},
			wantRule: "filter-dominance", wantSev: Warning,
		},
		{
			name: "quarantine-heavy-op",
			counters: map[string]int64{
				"dataflow.op.03.ner.gene.quarantined": 40,
				"dataflow.op.03.ner.gene.in":          100,
			},
			wantRule: "quarantine-heavy-op", wantSev: Critical,
		},
		{
			name:     "op-panics",
			counters: map[string]int64{"dataflow.op.02.postag.panics": 2},
			wantRule: "op-panics", wantSev: Critical,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(tc.counters, tc.gauges)}})
			if rep.Healthy {
				t.Fatalf("expected %s finding, report healthy", tc.wantRule)
			}
			var found *Finding
			for i := range rep.Findings {
				if rep.Findings[i].Rule == tc.wantRule {
					found = &rep.Findings[i]
					break
				}
			}
			if found == nil {
				t.Fatalf("rule %s did not fire; findings: %+v", tc.wantRule, rep.Findings)
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

// TestRulesStayQuiet tables near-miss inputs that must NOT fire.
func TestRulesStayQuiet(t *testing.T) {
	cases := []struct {
		name     string
		counters map[string]int64
		rule     string
	}{
		{
			// Healthy 60% harvest rate.
			name: "harvest-ok",
			counters: map[string]int64{
				"crawler.classify.relevant":   60,
				"crawler.classify.irrelevant": 40,
			},
			rule: "harvest-collapse",
		},
		{
			// Too few classified pages to judge.
			name: "harvest-low-volume",
			counters: map[string]int64{
				"crawler.classify.relevant":   1,
				"crawler.classify.irrelevant": 9,
			},
			rule: "harvest-collapse",
		},
		{
			// Retries well under half the success count.
			name: "retry-low",
			counters: map[string]int64{
				"crawler.retry.scheduled": 10,
				"crawler.fetch.ok":        100,
			},
			rule: "retry-churn",
		},
		{
			// Quarantine rate under the 25% threshold.
			name: "quarantine-light",
			counters: map[string]int64{
				"dataflow.op.03.ner.gene.quarantined": 10,
				"dataflow.op.03.ner.gene.in":          100,
			},
			rule: "quarantine-heavy-op",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(tc.counters, nil)}})
			for _, f := range rep.Findings {
				if f.Rule == tc.rule {
					t.Errorf("rule %s fired on near-miss input: %+v", tc.rule, f)
				}
			}
		})
	}
}

// TestLogPillarRules exercises the rules that need the log pillar, and
// that they degrade to silence without it.
func TestLogPillarRules(t *testing.T) {
	sink := evlog.NewSink(evlog.DefaultConfig(7))
	frontier := sink.Logger("crawler.frontier")
	frontier.Warn("frontier.exhausted", 10)
	sink.Logger("fleet.supervisor").Error("shard.fenced", 11)
	logs := sink.Snapshot()

	rep := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil), Logs: logs}})
	var rules []string
	for _, f := range rep.Findings {
		rules = append(rules, f.Rule)
	}
	if !strings.Contains(strings.Join(rules, " "), "frontier-exhausted") {
		t.Errorf("frontier-exhausted did not fire; rules: %v", rules)
	}
	if !strings.Contains(strings.Join(rules, " "), "error-burst") {
		t.Errorf("error-burst did not fire; rules: %v", rules)
	}

	// Without the log pillar the same metrics input is healthy.
	rep = Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil)}})
	if !rep.Healthy {
		t.Errorf("nil-logs input should degrade to healthy, got %+v", rep.Findings)
	}
}

// TestRanking checks severity-major ordering and the score quantization.
func TestRanking(t *testing.T) {
	counters := map[string]int64{
		// Critical: quarantine-heavy op at 90%.
		"dataflow.op.01.a.quarantined": 90,
		"dataflow.op.01.a.in":          100,
		// Warning: dead hosts at 1/3 of errors.
		"crawler.fetch.hostdown": 10,
		"crawler.fetch.errors":   30,
		// Note: rate-limit pressure.
		"crawler.fetch.ratelimited": 50,
		"crawler.fetch.ok":          50,
	}
	rep := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(counters, nil)}})
	if len(rep.Findings) != 3 {
		t.Fatalf("want 3 findings, got %+v", rep.Findings)
	}
	wantOrder := []string{"quarantine-heavy-op", "dead-hosts", "rate-limit-pressure"}
	for i, want := range wantOrder {
		if rep.Findings[i].Rule != want {
			t.Errorf("findings[%d] = %s, want %s", i, rep.Findings[i].Rule, want)
		}
	}
	// 10/30 quantizes to 0.333 — three decimals exactly.
	if got := rep.Findings[1].Score; got != 0.333 {
		t.Errorf("dead-hosts score = %v, want 0.333", got)
	}

}

// TestDeterministicRenderings pins that the report and its text are pure
// functions of the input.
func TestDeterministicRenderings(t *testing.T) {
	counters := map[string]int64{
		"crawler.breaker.opened":  5,
		"crawler.fetch.hostdown":  8,
		"crawler.fetch.errors":    20,
		"crawler.retry.scheduled": 60,
		"crawler.fetch.ok":        100,
	}
	a := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(counters, nil)}})
	b := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(counters, nil)}})
	if a.Text() != b.Text() {
		t.Errorf("Text() not deterministic:\n%s\nvs\n%s", a.Text(), b.Text())
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Diagnose not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
