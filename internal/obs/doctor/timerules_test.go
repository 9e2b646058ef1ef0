package doctor

import (
	"fmt"
	"testing"

	"webtextie/internal/classify"
	"webtextie/internal/crawler"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/series"
	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// sampled builds an input holding a series snapshot of cumulative
// sample values, one sample per second of virtual time.
func sampled(streams map[string][]float64) Input {
	rec := series.New(series.DefaultConfig())
	for name, vals := range streams {
		for i, v := range vals {
			rec.Observe(name, int64(i)*1000, v)
		}
	}
	return Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(nil, nil), Series: rec.Snapshot()}}
}

// timeFirings holds one triggering sample stream per time-aware rule.
func timeFirings() []firing {
	return []firing{
		{
			// Early half harvests 45/130 = 35%, late half 5/120 = 4%:
			// under a quarter of the early rate, so critical.
			name: "harvest-decay-critical",
			in: sampled(map[string][]float64{
				"crawler.classify.relevant":   {0, 10, 20, 30, 40, 45, 47, 48, 49, 50},
				"crawler.classify.irrelevant": {0, 15, 30, 45, 60, 85, 113, 142, 171, 200},
			}),
			wantRule: "harvest-decay", wantSev: Critical,
		},
		{
			// Early 40/100 = 40%, late 15/100 = 15%: decayed past half
			// but not past a quarter — warning band.
			name: "harvest-decay-warning",
			in: sampled(map[string][]float64{
				"crawler.classify.relevant":   {0, 10, 20, 30, 40, 40, 44, 48, 51, 55},
				"crawler.classify.irrelevant": {0, 15, 30, 45, 60, 60, 81, 102, 123, 145},
			}),
			wantRule: "harvest-decay", wantSev: Warning,
		},
		{
			// Openings land in four distinct sampling windows.
			name: "breaker-oscillation",
			in: sampled(map[string][]float64{
				"crawler.breaker.opened": {0, 1, 1, 2, 2, 3, 3, 4},
			}),
			wantRule: "breaker-oscillation", wantSev: Warning,
		},
		{
			// Pending drains 10/s with 30 left: empty in 3s against a 7s
			// window — well inside the 2x horizon.
			name: "frontier-starvation-trend",
			in: sampled(map[string][]float64{
				"crawler.frontier.pending": {100, 90, 80, 70, 60, 50, 40, 30},
			}),
			wantRule: "frontier-starvation-trend", wantSev: Warning,
		},
		{
			// 20 pages/s in the first quarter, 1/s in the last.
			name: "throughput-cliff",
			in: sampled(map[string][]float64{
				"crawler.fetch.ok": {0, 20, 40, 60, 80, 85, 90, 95, 100, 102, 104, 106, 108, 109, 110, 111},
			}),
			wantRule: "throughput-cliff", wantSev: Warning,
		},
	}
}

// TestTimeRulesFire runs timeFirings: each stream raises its rule at its
// severity.
func TestTimeRulesFire(t *testing.T) {
	for _, tc := range timeFirings() {
		t.Run(tc.name, func(t *testing.T) { mustFire(t, tc) })
	}
}

// TestTimeRulesStayQuiet tables near-miss streams that must NOT fire,
// plus the degradation contract: no series pillar, no time findings.
func TestTimeRulesStayQuiet(t *testing.T) {
	cases := []struct {
		name    string
		streams map[string][]float64
		rule    string
	}{
		{
			// Steady 30% harvest in both halves.
			name: "harvest-steady",
			streams: map[string][]float64{
				"crawler.classify.relevant":   {0, 6, 12, 18, 24, 30, 36, 42, 48, 54},
				"crawler.classify.irrelevant": {0, 14, 28, 42, 56, 70, 84, 98, 112, 126},
			},
			rule: "harvest-decay",
		},
		{
			// Too few samples to judge, however steep the decay.
			name: "harvest-short-run",
			streams: map[string][]float64{
				"crawler.classify.relevant":   {0, 40, 45},
				"crawler.classify.irrelevant": {0, 40, 200},
			},
			rule: "harvest-decay",
		},
		{
			// One burst of openings, then quiet: a storm, not oscillation.
			name: "breaker-single-incident",
			streams: map[string][]float64{
				"crawler.breaker.opened": {0, 5, 5, 5, 5, 5, 5, 5},
			},
			rule: "breaker-oscillation",
		},
		{
			// Frontier growing: no starvation however the run ends.
			name: "frontier-growing",
			streams: map[string][]float64{
				"crawler.frontier.pending": {30, 40, 50, 60, 70, 80, 90, 100},
			},
			rule: "frontier-starvation-trend",
		},
		{
			// Draining, but the horizon is far beyond 2x the window.
			name: "frontier-slow-drain",
			streams: map[string][]float64{
				"crawler.frontier.pending": {1000, 999, 998, 997, 996, 995, 994, 993},
			},
			rule: "frontier-starvation-trend",
		},
		{
			// Uniform throughput end to end.
			name: "throughput-flat",
			streams: map[string][]float64{
				"crawler.fetch.ok": {0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150},
			},
			rule: "throughput-cliff",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Diagnose(sampled(tc.streams))
			for _, f := range rep.Findings {
				if f.Rule == tc.rule {
					t.Errorf("rule %s fired on near-miss stream: %+v", tc.rule, f)
				}
			}
		})
	}
	// Without the pillar, no time rule can fire at all.
	rep := Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: metricsWith(map[string]int64{
		"crawler.classify.relevant":   5,
		"crawler.classify.irrelevant": 95,
		"crawler.breaker.opened":      9,
	}, nil)}})
	for _, f := range rep.Findings {
		switch f.Rule {
		case "harvest-decay", "breaker-oscillation", "frontier-starvation-trend", "throughput-cliff":
			t.Errorf("time rule %s fired without the series pillar", f.Rule)
		}
	}
}

// timeFixtureCrawl runs a real sampled crawl over a synthetic web and
// returns its diagnosis. DepthDecay > 0 builds the paper's decaying web;
// 0 builds the uniform control. The crawl is seeded from every host's
// front page and spread thin across hosts (MaxPerHostPerCycle 2) so its
// cycles advance through page depth in synchronized waves — entering
// through the dense front band and digging into the sparse tail.
func timeFixtureCrawl(t *testing.T, depthDecay float64) *Report {
	t.Helper()
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 500, Drugs: 150, Diseases: 150}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	wcfg := synthweb.DefaultConfig()
	wcfg.NumHosts = 80
	// A dense front band (55% relevant on biomedical hosts) so the decayed
	// tail contrasts sharply even through classifier noise.
	wcfg.OffTopicShareOnBiomed = 0.45
	wcfg.DepthDecay = depthDecay
	web := synthweb.New(wcfg, gen)

	clf := classify.New()
	r := rng.New(3)
	for i := 0; i < 300; i++ {
		clf.Learn(gen.Doc(r, textgen.Medline, fmt.Sprint("m", i)).Text, classify.Relevant)
		clf.Learn(gen.Doc(r, textgen.Irrelevant, fmt.Sprint("w", i)).Text, classify.Irrelevant)
	}
	var seedURLs []string
	for _, h := range web.Hosts {
		seedURLs = append(seedURLs, synthweb.PageURL(h.Name, 0))
	}

	ccfg := crawler.DefaultConfig()
	ccfg.MaxPages = 900
	ccfg.FetchListSize = 80
	ccfg.MaxPerHostPerCycle = 2
	ccfg.Tunnelling = 3
	res := crawler.New(ccfg, web, clf).
		WithSeries(series.New(series.DefaultConfig())).
		Run(seedURLs)
	if res.Series == nil {
		t.Fatal("fixture crawl produced no series")
	}
	return Diagnose(Input{Snapshot: pillars.Snapshot{Metrics: res.Metrics, Series: res.Series}})
}

// TestHarvestDecayGolden is the ISSUE's acceptance fixture: the
// harvest-decay rule fires on a crawl of a depth-decaying web and stays
// silent on the uniform control, and both reports render identically
// across reruns.
func TestHarvestDecayGolden(t *testing.T) {
	decayed := timeFixtureCrawl(t, 0.4)
	var hit *Finding
	for i := range decayed.Findings {
		if decayed.Findings[i].Rule == "harvest-decay" {
			hit = &decayed.Findings[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("harvest-decay did not fire on the decaying web; report:\n%s", decayed.Text())
	}
	if hit.Severity < Warning {
		t.Errorf("harvest-decay severity = %v, want >= warning", hit.Severity)
	}

	uniform := timeFixtureCrawl(t, 0)
	for _, f := range uniform.Findings {
		if f.Rule == "harvest-decay" {
			t.Errorf("harvest-decay fired on the uniform control web:\n%s", uniform.Text())
		}
	}

	// Golden: rerunning either fixture reproduces the report bytes.
	if again := timeFixtureCrawl(t, 0.4); again.Text() != decayed.Text() {
		t.Error("decaying-web report not byte-stable across reruns")
	}
}
