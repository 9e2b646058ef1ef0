package core

import (
	"strings"
	"testing"

	"webtextie/internal/dataflow"
	"webtextie/internal/textgen"
)

// experimentsFixture reuses the cached system and pre-computed analysis.
func experimentsFixture(t testing.TB) *Experiments {
	t.Helper()
	sys, as := testSystem(t)
	e := NewExperimentsFromSystem(sys)
	e.as = as
	return e
}

func TestExperimentReportsGenerate(t *testing.T) {
	e := experimentsFixture(t)
	cases := []struct {
		name     string
		run      func() string
		mustHave []string
	}{
		{"Table1", e.Table1, []string{"general terms", "disease-specific", "gene-specific", "500"}},
		{"CrawlStats", e.CrawlStats, []string{"harvest rate", "MIME filter", "docs/s"}},
		{"ClassifierQuality", e.ClassifierQuality, []string{"cross-validation", "crawl sample", "98%"}},
		{"BoilerplateQuality", e.BoilerplateQuality, []string{"gold-standard", "crawl sample"}},
		{"Table2", e.Table2, []string{"PageRank", "top 30"}},
		{"Table3", e.Table3, []string{"Relevant", "Medline", "PMC", "865"}},
		{"Fig4", e.Fig4, []string{"scale-up", "linguistic", "entity"}},
		{"Fig5", e.Fig5, []string{"scale-out", "infeasible", "95%"}},
		{"WarStory", e.WarStory, []string{"60 GB", "OpenNLP", "network"}},
		{"Fig6", e.Fig6, []string{"document length", "negation", "Mann-Whitney"}},
		{"Pronouns", e.Pronouns, []string{"demonstrative", "parens"}},
		{"Table4", e.Table4, []string{"distinct entity names", "5506579", "TLA"}},
		{"Fig7", e.Fig7, []string{"1000 sentences", "128.49", "415.58"}},
		{"Fig8", e.Fig8, []string{"overlap", "irrelevant:", "medline:"}},
		{"JSD", e.JSDReport, []string{"Jensen-Shannon", "Relevant vs Irrelevant"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := c.run()
			if len(out) < 100 {
				t.Fatalf("report too short:\n%s", out)
			}
			for _, probe := range c.mustHave {
				if !strings.Contains(out, probe) {
					t.Errorf("report missing %q:\n%s", probe, out)
				}
			}
		})
	}
}

func TestFig3Report(t *testing.T) {
	// Fig 3 measures wall-clock; run it separately (it is slower).
	e := experimentsFixture(t)
	out := e.Fig3()
	if !strings.Contains(out, "POS tagging") || !strings.Contains(out, "dict (gene)") {
		t.Fatalf("Fig3 report:\n%s", out)
	}
	// Fig 3b prints the ML-to-dict time ratio per probe; its size is a
	// measurement of this machine and is not asserted.
	if !strings.Contains(out, "x") {
		t.Error("no ratio column")
	}
}

func TestSeedsExperimentReport(t *testing.T) {
	e := experimentsFixture(t)
	out := e.SeedsExperiment()
	for _, probe := range []string{"45,227", "frontier emptied", "yield ratio"} {
		if !strings.Contains(out, probe) {
			t.Errorf("seeds report missing %q:\n%s", probe, out)
		}
	}
}

func TestRelationsReportExtension(t *testing.T) {
	e := experimentsFixture(t)
	out := e.RelationsReport()
	for _, probe := range []string{"relation", "Relevant", "Medline", "regulation"} {
		if !strings.Contains(out, probe) {
			t.Errorf("relations report missing %q:\n%s", probe, out)
		}
	}
}

func TestRelationFlowRuns(t *testing.T) {
	sys, _ := testSystem(t)
	reg := sys.Registry()
	plan := reg.RelationFlow()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	c := sys.Set.Corpus(textgen.Medline)
	recs := make([]dataflow.Record, 0, 30)
	for _, d := range c.Docs[:30] {
		recs = append(recs, dataflow.Record{"id": d.ID, "text": d.Text})
	}
	results, _, err := dataflow.Execute(plan, recs, dataflow.ExecConfig{DoP: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sink := range plan.Sinks() {
		for _, rec := range results[sink.ID()] {
			total += rec["n_relations"].(int)
		}
	}
	if total == 0 {
		t.Fatal("no relations extracted from 30 Medline docs")
	}
}
