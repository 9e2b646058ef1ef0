package webtextie

// Facade-level tests: the public API a downstream user sees, exercised
// end-to-end against the shared quick-scale system.

import (
	"strings"
	"testing"

	"webtextie/internal/dataflow"
	"webtextie/internal/meteor"
)

func TestFacadeNewAndAnalyze(t *testing.T) {
	sys, as := benchSystem(&testing.B{})
	if sys == nil || as == nil {
		t.Fatal("facade construction failed")
	}
	if sys.Set.Crawl.Stats.Relevant == 0 {
		t.Fatal("no relevant pages crawled")
	}
	for _, kind := range []CorpusKind{Relevant, Irrelevant, Medline, PMC} {
		if as.ByKind[kind] == nil {
			t.Fatalf("no analysis for %v", kind)
		}
	}
}

func TestFacadeExtraction(t *testing.T) {
	sys, _ := benchSystem(&testing.B{})
	doc := sys.Set.Corpus(Medline).Docs[0]
	for _, et := range []EntityType{Gene, Drug, Disease} {
		_ = sys.ExtractDict(et, doc.Text)
		_ = sys.ExtractML(et, doc.Text)
	}
}

func TestFacadeMeteorScript(t *testing.T) {
	sys, _ := benchSystem(&testing.B{})
	script, err := meteor.Parse(ConsolidatedMeteorScript)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := meteor.Compile(script, sys.Registry())
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Plan.Size() != 30 || len(compiled.SinkIDs) != 2 {
		t.Errorf("plan size = %d with %d sinks, want 30 with 2", compiled.Plan.Size(), len(compiled.SinkIDs))
	}
}

func TestFacadeExperiments(t *testing.T) {
	sys, as := benchSystem(&testing.B{})
	exp := NewExperimentsFromSystem(sys)
	_ = as
	out := exp.Table3()
	if !strings.Contains(out, "Medline") {
		t.Errorf("Table3 output:\n%s", out)
	}
}

func TestFacadeBuildCorpora(t *testing.T) {
	sys, _ := benchSystem(&testing.B{})
	// BuildCorpora with the same config reproduces the same corpora.
	set := BuildCorpora(sys.Cfg.Corpora)
	if set.Corpus(Medline).NumDocs() != sys.Set.Corpus(Medline).NumDocs() {
		t.Error("BuildCorpora not deterministic against system build")
	}
}

func TestFacadeCustomOperator(t *testing.T) {
	sys, _ := benchSystem(&testing.B{})
	base := sys.Registry()
	reg := meteor.RegistryFunc(func(name string, p meteor.Params) (*dataflow.Op, error) {
		if name == "mark" {
			return &dataflow.Op{Name: "mark", Pkg: dataflow.BASE,
				Reads: []string{}, Writes: []string{"marked"}, Selectivity: 1,
				Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
					out := rec.Clone()
					out["marked"] = true
					emit(out)
					return nil
				}}, nil
		}
		return base.Resolve(name, p)
	})
	out, _, err := meteor.Run(`
$in  = read from 'docs';
$s   = annotate_sentences $in;
$m   = mark $s;
write $m to 'out';
`, reg, map[string][]dataflow.Record{
		"docs": {{"id": "d1", "text": "One sentence. Two sentences."}},
	}, true, dataflow.ExecConfig{DoP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["out"]) != 1 || out["out"][0]["marked"] != true {
		t.Fatalf("custom operator output: %v", out["out"])
	}
}
