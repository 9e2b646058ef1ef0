package core

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/dataflow"
	"webtextie/internal/meteor"
	"webtextie/internal/stats"
	"webtextie/internal/store"
	"webtextie/internal/textgen"
)

var (
	sysOnce   sync.Once
	sysCached *System
	asCached  *AnalysisSet
	asErr     error
)

// testSystem builds (once) the test-scale system and full analysis.
func testSystem(t testing.TB) (*System, *AnalysisSet) {
	t.Helper()
	sysOnce.Do(func() {
		sysCached = NewSystem(TestConfig())
		asCached, asErr = sysCached.AnalyzeAll(4)
	})
	if asErr != nil {
		t.Fatal(asErr)
	}
	return sysCached, asCached
}

func TestSystemConstruction(t *testing.T) {
	s, _ := testSystem(t)
	if s.POS == nil {
		t.Fatal("no POS tagger")
	}
	for _, et := range textgen.EntityTypes {
		if s.DictMatchers[et] == nil || s.CRFTaggers[et] == nil {
			t.Fatalf("missing taggers for %v", et)
		}
	}
	if s.Set.Crawl.Stats.Fetched == 0 {
		t.Fatal("no crawl happened")
	}
}

// opNames returns all registered operator names, sorted.
func opNames(r *Registry) []string {
	out := make([]string, 0, len(r.builders))
	for n := range r.builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func TestRegistryShipsOver60Operators(t *testing.T) {
	// §3.1: "the system ships more than 60 different operators organized
	// in four packages".
	s, _ := testSystem(t)
	names := opNames(s.Registry())
	if len(names) <= 60 {
		t.Fatalf("registry has %d operators, want more than 60", len(names))
	}
	t.Logf("registry: %d operators", len(names))
	// All four packages must be populated.
	pkgs := map[dataflow.Pkg]int{}
	reg := s.Registry()
	for _, n := range names {
		op, err := reg.Resolve(n, meteor.Params{"type": {Str: "gene"}, "keep": {Str: "id"},
			"from": {Str: "a"}, "to": {Str: "b"}})
		if err != nil {
			t.Errorf("resolve %q: %v", n, err)
			continue
		}
		pkgs[op.Pkg]++
	}
	for _, p := range []dataflow.Pkg{dataflow.BASE, dataflow.IE, dataflow.WA, dataflow.DC} {
		if pkgs[p] < 5 {
			t.Errorf("package %s has only %d operators", p, pkgs[p])
		}
	}
}

func TestConsolidatedFlowHas38Operators(t *testing.T) {
	// §3.2: "The complete data flow ... consists of 38 elementary
	// operators."
	s, _ := testSystem(t)
	plan := s.Registry().ConsolidatedFlow()
	if got := plan.Size(); got != 38 {
		t.Fatalf("consolidated flow has %d operators, want 38\n%s", got, plan)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both branches must exist: two project nodes feeding the final union.
	if len(plan.Sinks()) != 1 {
		t.Fatalf("sinks = %d", len(plan.Sinks()))
	}
}

func TestConsolidatedMeteorScriptCompiles(t *testing.T) {
	s, _ := testSystem(t)
	script, err := meteor.Parse(ConsolidatedMeteorScript)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := meteor.Compile(script, s.Registry())
	if err != nil {
		t.Fatal(err)
	}
	// A 30-node variant of Fig 2 with one sink per branch, not the
	// 38-operator ConsolidatedFlow.
	if compiled.Plan.Size() != 30 || len(compiled.Plan.Sinks()) != 2 {
		t.Errorf("meteor plan has %d nodes and %d sinks, want 30 and 2", compiled.Plan.Size(), len(compiled.Plan.Sinks()))
	}
	if err := compiled.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

// rawPages fetches 30 raw pages of biomedical hosts from the synthetic web,
// as records of the web flows' input.
func rawPages(s *System) []dataflow.Record {
	var recs []dataflow.Record
	for _, h := range s.Set.Web.Hosts {
		if !h.Biomed || h.Hub {
			continue
		}
		for i := 1; i < h.Pages && len(recs) < 30; i++ {
			p, err := s.Set.Web.Fetch("http://" + h.Name + "/p" + itoa(i) + ".html")
			if err != nil {
				continue
			}
			recs = append(recs, dataflow.Record{"id": p.URL, "html": string(p.Body)})
		}
		if len(recs) >= 30 {
			break
		}
	}
	return recs
}

func TestMeteorScriptRunsOnRawPages(t *testing.T) {
	// End-to-end: fetch raw pages from the synthetic web and push them
	// through the scripted consolidated flow.
	s, _ := testSystem(t)
	out, execStats, err := meteor.Run(ConsolidatedMeteorScript, s.Registry(),
		map[string][]dataflow.Record{"crawl": rawPages(s)}, true, dataflow.ExecConfig{DoP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["linguistic"]) == 0 {
		t.Error("no linguistic results")
	}
	if len(out["entities"]) == 0 {
		t.Error("no entity results")
	}
	// The flow must survive malformed pages without aborting.
	_ = execStats
	for _, rec := range out["entities"] {
		if _, ok := rec["entities"].([]EntityAnn); !ok {
			t.Fatalf("entity record missing entities field: %v", rec)
		}
	}
}

// TestFlowsRunTheSameTwice: operators create their state per Execute, so
// each flow plan — analysis, consolidated, linguistic, entity and relation,
// web and not, and the compiled Meteor script, each optimized and not —
// executed twice over one input fills its sinks the same both times: no
// record is dropped at a dedupe that remembers the first run.
func TestFlowsRunTheSameTwice(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	pages := rawPages(s)
	var abstracts []dataflow.Record
	for _, d := range s.Set.Corpus(textgen.Medline).Docs[:30] {
		abstracts = append(abstracts, dataflow.Record{"id": d.ID, "text": d.Text})
	}
	type flow struct {
		name  string
		web   bool
		build func() *dataflow.Plan
	}
	flows := []flow{
		{"consolidated", true, reg.ConsolidatedFlow},
		{"script", true, func() *dataflow.Plan {
			script, err := meteor.Parse(ConsolidatedMeteorScript)
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := meteor.Compile(script, reg)
			if err != nil {
				t.Fatal(err)
			}
			return compiled.Plan
		}},
	}
	for _, web := range []bool{false, true} {
		for i, build := range []func(bool) *dataflow.Plan{reg.AnalysisFlow, reg.LinguisticFlow, reg.EntityFlow, reg.RelationFlow} {
			name := []string{"analysis", "linguistic", "entity", "relation"}[i]
			flows = append(flows, flow{fmt.Sprintf("%s/web=%v", name, web), web, func() *dataflow.Plan { return build(web) }})
		}
	}
	// sinks renders every sink record of one execution, sorted: fmt
	// prints a record's fields in key order.
	sinks := func(plan *dataflow.Plan, in []dataflow.Record) []string {
		res, _, err := dataflow.Execute(plan, in, dataflow.ExecConfig{DoP: 2})
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for id, recs := range res {
			for _, rec := range recs {
				lines = append(lines, fmt.Sprintf("%d %v", id, rec))
			}
		}
		sort.Strings(lines)
		return lines
	}
	for _, f := range flows {
		for _, optimize := range []bool{false, true} {
			plan, in := f.build(), abstracts
			if optimize {
				dataflow.Optimize(plan)
			}
			if f.web {
				in = pages
			}
			first, second := sinks(plan, in), sinks(plan, in)
			if len(first) == 0 || !slices.Equal(first, second) {
				t.Errorf("%s, optimized=%v: %d sink records, then %d", f.name, optimize, len(first), len(second))
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestAnalysisProducesAllCorpora(t *testing.T) {
	_, as := testSystem(t)
	for _, kind := range textgen.CorpusKinds {
		a := as.ByKind[kind]
		if a == nil || a.Docs == 0 {
			t.Fatalf("no analysis for %v", kind)
		}
		if a.Sentences == 0 {
			t.Errorf("%v: no sentences counted", kind)
		}
		if len(a.Ling) == 0 {
			t.Errorf("%v: no linguistic stats", kind)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	// Table 4 shapes: (a) ML produces substantially more distinct names
	// than dictionaries for genes; (b) relevant >> irrelevant for every
	// class and method.
	_, as := testSystem(t)
	rel := as.ByKind[textgen.Relevant]
	irr := as.ByKind[textgen.Irrelevant]
	for _, et := range textgen.EntityTypes {
		for _, m := range Methods {
			r := len(rel.DistinctNames[m][et])
			i := len(irr.DistinctNames[m][et])
			if r == 0 {
				t.Errorf("%v/%v: no names in relevant corpus", m, et)
				continue
			}
			if i >= r {
				t.Errorf("%v/%v: irrelevant (%d) >= relevant (%d)", m, et, i, r)
			}
		}
	}
	// Gene explosion: raw ML distinct names outnumber dictionary names.
	mlRaw := len(rel.RawMLGeneNames)
	dictN := len(rel.DistinctNames[Dict][textgen.Gene])
	if mlRaw <= dictN {
		t.Errorf("raw ML gene names (%d) not > dict names (%d)", mlRaw, dictN)
	}
	// The TLA filter must remove something on web text (§4.3.2).
	if rel.TLARemoved == 0 {
		t.Error("TLA filter removed nothing on the relevant web corpus")
	}
	filtered := len(rel.DistinctNames[ML][textgen.Gene])
	if filtered >= mlRaw {
		t.Errorf("TLA filtering did not shrink distinct gene names: %d -> %d", mlRaw, filtered)
	}
}

func TestFig6LinguisticOrderings(t *testing.T) {
	_, as := testSystem(t)
	meanChars := func(kind textgen.CorpusKind) float64 {
		var sum float64
		a := as.ByKind[kind]
		for _, l := range a.Ling {
			sum += float64(l.Chars)
		}
		return sum / float64(len(a.Ling))
	}
	negPerSent := func(kind textgen.CorpusKind) float64 {
		var neg, sents float64
		for _, l := range as.ByKind[kind].Ling {
			neg += float64(l.Negations)
			sents += float64(l.Sentences)
		}
		return neg / sents
	}
	// Fig 6a: PMC > Relevant > Irrelevant > Medline (net-text doc length).
	if !(meanChars(textgen.PMC) > meanChars(textgen.Relevant) &&
		meanChars(textgen.Relevant) > meanChars(textgen.Irrelevant) &&
		meanChars(textgen.Irrelevant) > meanChars(textgen.Medline)) {
		t.Errorf("doc length ordering: pmc=%.0f rel=%.0f irr=%.0f med=%.0f",
			meanChars(textgen.PMC), meanChars(textgen.Relevant),
			meanChars(textgen.Irrelevant), meanChars(textgen.Medline))
	}
	// Fig 6c: negation PMC > Relevant > Medline.
	if !(negPerSent(textgen.PMC) > negPerSent(textgen.Relevant) &&
		negPerSent(textgen.Relevant) > negPerSent(textgen.Medline)) {
		t.Errorf("negation ordering: pmc=%.3f rel=%.3f med=%.3f",
			negPerSent(textgen.PMC), negPerSent(textgen.Relevant),
			negPerSent(textgen.Medline))
	}
	// The differences must be statistically significant (P < 0.01), as the
	// paper reports for every pairwise comparison.
	lengths := func(kind textgen.CorpusKind) []float64 {
		var out []float64
		for _, l := range as.ByKind[kind].Ling {
			out = append(out, float64(l.Chars))
		}
		return out
	}
	_, p := stats.MannWhitney(lengths(textgen.Relevant), lengths(textgen.Medline))
	if p > 0.01 {
		t.Errorf("relevant-vs-medline doc length P = %v, want < 0.01", p)
	}
}

func TestFig7EntityIncidences(t *testing.T) {
	_, as := testSystem(t)
	// §4.3.2 per-1000-sentence shapes (dictionary-based, as reported for
	// genes): medline > relevant > irrelevant.
	rel := as.ByKind[textgen.Relevant]
	irr := as.ByKind[textgen.Irrelevant]
	med := as.ByKind[textgen.Medline]
	for _, et := range textgen.EntityTypes {
		r := rel.MentionsPer1000Sentences(Dict, et)
		i := irr.MentionsPer1000Sentences(Dict, et)
		m := med.MentionsPer1000Sentences(Dict, et)
		if !(r > i) {
			t.Errorf("%v: relevant density %.1f <= irrelevant %.1f", et, r, i)
		}
		if !(m > r) {
			t.Errorf("%v: medline density %.1f <= relevant %.1f", et, m, r)
		}
	}
}

func TestJSDRelationships(t *testing.T) {
	// §4.3.2: JSD(rel, irrel) > JSD(rel, medline) and > JSD(rel, pmc):
	// the relevant crawl is distributionally closer to the scientific
	// literature than to the rejected pages.
	_, as := testSystem(t)
	for _, et := range textgen.EntityTypes {
		rel := as.ByKind[textgen.Relevant].Distribution(Dict, et)
		irr := as.ByKind[textgen.Irrelevant].Distribution(Dict, et)
		med := as.ByKind[textgen.Medline].Distribution(Dict, et)
		if rel == nil || irr == nil || med == nil {
			t.Logf("%v: skipping, empty distribution", et)
			continue
		}
		jsdRelIrr := stats.JSD(rel, irr)
		jsdRelMed := stats.JSD(rel, med)
		if jsdRelIrr <= jsdRelMed {
			t.Errorf("%v: JSD(rel,irr)=%.3f <= JSD(rel,med)=%.3f",
				et, jsdRelIrr, jsdRelMed)
		}
	}
}

func TestExtractHelpers(t *testing.T) {
	s, _ := testSystem(t)
	lex := s.Set.Lexicon
	var inDict *textgen.Entry
	for _, e := range lex.ByType(textgen.Disease) {
		if e.InDictionary && !strings.Contains(e.Name, " ") {
			inDict = e
			break
		}
	}
	if inDict == nil {
		t.Skip("no single-word in-dictionary disease")
	}
	text := "Patients with " + inDict.Name + " were treated."
	found := s.ExtractDict(textgen.Disease, text)
	ok := false
	for _, f := range found {
		if f.Surface == inDict.Name {
			ok = true
		}
	}
	if !ok {
		t.Errorf("dictionary missed %q in %q (got %v)", inDict.Name, text, found)
	}
}

func TestAnalysisDeterministic(t *testing.T) {
	s, as := testSystem(t)
	reg := s.Registry()
	again, err := s.AnalyzeCorpus(reg, s.Set.Corpus(textgen.Medline), 2)
	if err != nil {
		t.Fatal(err)
	}
	base := as.ByKind[textgen.Medline]
	if again.Sentences != base.Sentences || again.Docs != base.Docs {
		t.Errorf("re-analysis differs: %d/%d vs %d/%d sentences/docs",
			again.Sentences, again.Docs, base.Sentences, base.Docs)
	}
	for _, m := range Methods {
		for _, et := range textgen.EntityTypes {
			if len(again.DistinctNames[m][et]) != len(base.DistinctNames[m][et]) {
				t.Errorf("%v/%v distinct names differ", m, et)
			}
		}
	}
}

func TestPaperProfilesConsistency(t *testing.T) {
	ling, ent, cons := PaperProfiles()
	if ling.MemPerWorkerGB >= ent.MemPerWorkerGB {
		t.Error("linguistic flow should be lighter than entity flow")
	}
	if cons.MemPerWorkerGB < ent.MemPerWorkerGB {
		t.Error("consolidated flow must be at least as heavy as the entity flow")
	}
	if !cons.LibraryConflict {
		t.Error("consolidated flow must carry the OpenNLP conflict")
	}
}

func TestMeasuredProfile(t *testing.T) {
	s, _ := testSystem(t)
	plan := s.Registry().EntityFlow(false)
	fp := MeasuredProfile("entity-measured", plan, 0.4, 0.08)
	if fp.PerKBms <= 0 || fp.StartupMs <= 0 || fp.MemPerWorkerGB <= 0 {
		t.Errorf("profile = %+v", fp)
	}
	lp := MeasuredProfile("ling-measured", s.Registry().LinguisticFlow(false), 1.2, 0.01)
	if lp.PerKBms >= fp.PerKBms {
		t.Error("linguistic flow should be cheaper per KB than entity flow")
	}
}

func TestExportFacts(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	dir := t.TempDir()
	a, facts, err := s.ExportFacts(reg, s.Set.Corpus(textgen.Medline), 2, dir, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if facts == 0 {
		t.Fatal("no facts exported")
	}
	// Every exported fact must be readable and well-formed.
	chunks, err := filepath.Glob(filepath.Join(dir, "facts-Medline-*.jsonl.gz"))
	if err != nil || len(chunks) == 0 {
		t.Fatalf("no fact chunks: %v", err)
	}
	var n int64
	for _, path := range chunks {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		gz, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		for dec := json.NewDecoder(gz); dec.More(); n++ {
			var fact store.Fact
			if err := dec.Decode(&fact); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if fact.DocID == "" || fact.Surface == "" || fact.Start >= fact.End {
				t.Fatalf("bad fact: %+v", fact)
			}
			if fact.Type != "gene" && fact.Type != "drug" && fact.Type != "disease" {
				t.Fatalf("bad type: %+v", fact)
			}
		}
		f.Close()
	}
	if n != facts {
		t.Fatalf("read %d facts, wrote %d", n, facts)
	}
	// The export's analysis matches a plain analysis.
	plain, err := s.AnalyzeCorpus(reg, s.Set.Corpus(textgen.Medline), 2)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sentences != a.Sentences {
		t.Error("export analysis differs from plain analysis")
	}
}
