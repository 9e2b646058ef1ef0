package doctor

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
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

// firing is one table input and the finding it must raise.
type firing struct {
	name     string
	in       Input
	wantRule string
	wantSev  Severity
}

// counts builds an input that holds only a metric snapshot.
func counts(counters, gauges map[string]int64) Input {
	return Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(counters, gauges)}}
}

// mustFire diagnoses tc.in and returns the tc.wantRule finding, failing
// unless it is there at tc.wantSev with a score in (0,1] and evidence.
func mustFire(t *testing.T, tc firing) Finding {
	t.Helper()
	rep := Diagnose(tc.in)
	for _, f := range rep.Findings {
		if f.Rule != tc.wantRule {
			continue
		}
		if f.Severity != tc.wantSev {
			t.Errorf("severity = %v, want %v", f.Severity, tc.wantSev)
		}
		if f.Score <= 0 || f.Score > 1 {
			t.Errorf("score %v outside (0,1]", f.Score)
		}
		if len(f.Evidence) == 0 {
			t.Errorf("finding has no evidence")
		}
		return f
	}
	t.Fatalf("rule %s did not fire; findings: %+v", tc.wantRule, rep.Findings)
	return Finding{}
}

// ruleNames diagnoses in and returns its findings' rule names, ranked.
func ruleNames(in Input) []string {
	var names []string
	for _, f := range Diagnose(in).Findings {
		names = append(names, f.Rule)
	}
	return names
}

// countFirings holds one triggering metric input per count rule.
var countFirings = []firing{
	{
		name: "harvest-collapse",
		in: counts(map[string]int64{
			"crawler.classify.relevant":   5,
			"crawler.classify.irrelevant": 95,
		}, nil),
		wantRule: "harvest-collapse", wantSev: Critical,
	},
	{
		name:     "breaker-storm-warning-when-all-closed",
		in:       counts(map[string]int64{"crawler.breaker.opened": 3}, nil),
		wantRule: "breaker-storm", wantSev: Warning,
	},
	{
		name: "breaker-storm-critical-when-open-now",
		in: counts(map[string]int64{"crawler.breaker.opened": 3},
			map[string]int64{"crawler.breaker.open.hosts": 2}),
		wantRule: "breaker-storm", wantSev: Critical,
	},
	{
		name: "dead-hosts",
		in: counts(map[string]int64{
			"crawler.fetch.hostdown": 30,
			"crawler.fetch.errors":   60,
		}, nil),
		wantRule: "dead-hosts", wantSev: Warning,
	},
	{
		name: "spider-trap",
		in: counts(map[string]int64{
			"crawler.frontier.trap":    400,
			"crawler.links.discovered": 1000,
		}, nil),
		wantRule: "spider-trap", wantSev: Warning,
	},
	{
		name: "retry-churn",
		in: counts(map[string]int64{
			"crawler.retry.scheduled": 80,
			"crawler.fetch.ok":        100,
		}, nil),
		wantRule: "retry-churn", wantSev: Warning,
	},
	{
		name: "rate-limit-pressure",
		in: counts(map[string]int64{
			"crawler.fetch.ratelimited": 50,
			"crawler.fetch.ok":          100,
		}, nil),
		wantRule: "rate-limit-pressure", wantSev: Note,
	},
	{
		name: "filter-dominance",
		in: counts(map[string]int64{
			"crawler.filter.mime":   10,
			"crawler.filter.lang":   45,
			"crawler.filter.length": 20,
			"crawler.fetch.ok":      100,
		}, nil),
		wantRule: "filter-dominance", wantSev: Warning,
	},
	{
		name: "quarantine-heavy-op",
		in: counts(map[string]int64{
			"dataflow.op.03.ner.gene.quarantined": 40,
			"dataflow.op.03.ner.gene.in":          100,
		}, nil),
		wantRule: "quarantine-heavy-op", wantSev: Critical,
	},
	{
		name:     "op-panics",
		in:       counts(map[string]int64{"dataflow.op.02.postag.panics": 2}, nil),
		wantRule: "op-panics", wantSev: Critical,
	},
}

// TestRulesFire runs countFirings: each input raises its rule at its
// severity.
func TestRulesFire(t *testing.T) {
	for _, tc := range countFirings {
		t.Run(tc.name, func(t *testing.T) { mustFire(t, tc) })
	}
}

// fleetLogs is the supervisor's log for a run with two crashes, one
// restart and one fencing: four warnings and one error.
func fleetLogs() *evlog.Snapshot {
	sink := evlog.NewSink(evlog.DefaultConfig(5))
	sup := sink.Logger("fleet.supervisor")
	sup.Warn("shard.crash", 10)
	sup.Warn("shard.restart", 10)
	sup.Warn("shard.crash", 20)
	sup.Warn("shard.mail.dropped", 20)
	sup.Error("shard.fenced", 20)
	return sink.Snapshot()
}

// fleetFirings holds the fleet-fault rule's two states: every crash
// recovered, and a shard fenced.
var fleetFirings = []firing{
	{
		name: "recovered",
		in: counts(map[string]int64{
			"fleet.shard.crashes":  3,
			"fleet.shard.restarts": 3,
		}, nil),
		wantRule: "shard-crash-loop", wantSev: Warning,
	},
	{
		name: "fenced",
		in: Input{Snapshot: pillars.Snapshot{
			Metrics: metricsWith(map[string]int64{
				"fleet.shard.crashes":  2,
				"fleet.shard.restarts": 1,
				"fleet.shard.fenced":   1,
				"fleet.mail.dropped":   174,
			}, nil),
			Logs: fleetLogs(),
		}},
		wantRule: "degraded-completion", wantSev: Critical,
	},
}

// TestFleetFaultRule: supervision raises exactly one fleet finding —
// shard-crash-loop while every crash was recovered, degraded-completion
// once a shard was fenced — and that one finding carries every number
// of the fleet story, so nothing else need repeat it.
func TestFleetFaultRule(t *testing.T) {
	want := map[string][]string{
		"recovered": {"fleet.shard.crashes=3 fleet.shard.restarts=3 fleet.shard.fenced=0 fleet.mail.dropped=0"},
		"fenced": {
			"fleet.shard.crashes=2 fleet.shard.restarts=1 fleet.shard.fenced=1 fleet.mail.dropped=174",
			"corpus manifest carries `deg` footer lines enumerating the missing partitions",
			"event log holds 5 supervisor warnings and errors (see /logs?component=fleet.supervisor)",
		},
	}
	for _, tc := range fleetFirings {
		t.Run(tc.name, func(t *testing.T) {
			f := mustFire(t, tc)
			if !reflect.DeepEqual(f.Evidence, want[tc.name]) {
				t.Errorf("evidence = %q, want %q", f.Evidence, want[tc.name])
			}
			if rules := ruleNames(tc.in); !reflect.DeepEqual(rules, []string{tc.wantRule}) {
				t.Errorf("findings %v, want only %s", rules, tc.wantRule)
			}
		})
	}
}

// firingCases gathers every firing table in the package.
func firingCases() []firing {
	return slices.Concat(countFirings, fleetFirings, logFirings(), timeFirings(), costFirings())
}

// TestEveryRuleFires: each function in the rule set raises a finding on
// at least one table input, so no dead rule sits in the set.
func TestEveryRuleFires(t *testing.T) {
	cases := firingCases()
	for i, rule := range rules {
		if !slices.ContainsFunc(cases, func(tc firing) bool { return len(rule(tc.in)) > 0 }) {
			t.Errorf("rules[%d] (%s) fires on no table input",
				i, runtime.FuncForPC(reflect.ValueOf(rule).Pointer()).Name())
		}
	}
}

// ruleName matches a rule name where a Finding literal spells it.
var ruleName = regexp.MustCompile(`Rule:\s+"([a-z-]+)"`)

// TestDesignNamesEveryRule: DESIGN.md's crawl-doctor bullet names, in
// backquotes, exactly the rule names the package's source emits.
func TestDesignNamesEveryRule(t *testing.T) {
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var emitted []string
	for _, src := range sources {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ruleName.FindAllStringSubmatch(string(data), -1) {
			emitted = append(emitted, m[1])
		}
	}
	design, err := os.ReadFile(filepath.Join("..", "..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, bullet, ok := strings.Cut(string(design), "* **Crawl doctor.**")
	if !ok {
		t.Fatal("DESIGN.md has no Crawl doctor bullet")
	}
	bullet, _, _ = strings.Cut(bullet, "\n* ")
	var named []string
	for _, m := range regexp.MustCompile("`([a-z]+(?:-[a-z]+)+)`").FindAllStringSubmatch(bullet, -1) {
		named = append(named, m[1])
	}
	slices.Sort(emitted)
	slices.Sort(named)
	if len(emitted) < len(rules) || !slices.Equal(named, emitted) {
		t.Errorf("DESIGN.md's doctor bullet names %v;\nthe package emits %v", named, emitted)
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

// logFirings holds the log-pillar rule's firing input: retention shed
// the frontier.exhausted record, and the exact total still answers.
func logFirings() []firing {
	sink := evlog.NewSink(evlog.DefaultConfig(7))
	sink.Logger("crawler.frontier").Warn("frontier.exhausted", 10)
	sink.Logger("fleet.supervisor").Error("shard.fenced", 11)
	logs := sink.Snapshot()
	logs.Records = nil
	return []firing{{
		name:     "frontier-exhausted",
		in:       Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil), Logs: logs}},
		wantRule: "frontier-exhausted", wantSev: Note,
	}}
}

// TestLogPillarRules exercises the rule that needs the log pillar: it
// reads the exact per-component total, not retained records, and a
// fencing record alone raises nothing (the fleet finding reads the
// supervisor's counters). Without the pillar it degrades to silence.
func TestLogPillarRules(t *testing.T) {
	tc := logFirings()[0]
	mustFire(t, tc)
	if rules := ruleNames(tc.in); !reflect.DeepEqual(rules, []string{"frontier-exhausted"}) {
		t.Errorf("findings %v, want only frontier-exhausted", rules)
	}

	// Without the log pillar the same metrics input is healthy.
	rep := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil)}})
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
