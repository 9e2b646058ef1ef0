package core

// Each per-document analysis runs once: the linguistic annotators share one
// ling.Analyze through ling_analysis, the entity sorts allocate nothing, and
// the operator bodies size their outputs once. These tests hold the
// rewritten operators to the closures they replaced, and to their
// allocation counts.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"webtextie/internal/dataflow"
	"webtextie/internal/ling"
	"webtextie/internal/meteor"
	"webtextie/internal/nlp"
	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

// refAnnotateKind is the linguistic annotator the shared analysis
// replaced: each operator analyzes the whole document and keeps one kind.
func refAnnotateKind(kind ling.Kind) func(dataflow.Record) {
	return func(rec dataflow.Record) {
		all := ling.Analyze(get[string](rec, "id"), get[string](rec, "text"), get[[]nlp.Span](rec, "sentences"))
		var keep []ling.Annotation
		for _, a := range all {
			if a.Kind == kind {
				keep = append(keep, a)
			}
		}
		rec["anns"] = append(append([]ling.Annotation{}, get[[]ling.Annotation](rec, "anns")...), keep...)
	}
}

// refLingOps are the four linguistic operators as they were before they
// shared an analysis.
var refLingOps = map[string]func(dataflow.Record){
	"annotate_negation": refAnnotateKind(ling.KindNegation),
	"annotate_pronouns": refAnnotateKind(ling.KindPronoun),
	"annotate_parens":   refAnnotateKind(ling.KindParen),
	"ling_stats": func(rec dataflow.Record) {
		rec["ling"] = ling.Measure(get[string](rec, "id"), get[string](rec, "text"))
	},
}

// TestSharedAnalysisMatchesReference: a chain of operators run through the
// executor equals the same chain with the four linguistic operators
// replaced by the closures they replaced, field for field but for
// ling_analysis, which only the new operators store. Between the
// annotators, an operator rewrites the text, re-splits it or renames the
// document: each forces a fresh analysis, and the stored one is of the
// record's final id, text and sentences. A rewrite after the annotators
// makes ling_stats measure the text afresh.
func TestSharedAnalysisMatchesReference(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	type step struct {
		name   string
		params meteor.Params
	}
	lingSteps := func(between step) []step {
		return []step{{"annotate_sentences", nil}, {"annotate_negation", nil}, between,
			{"annotate_pronouns", nil}, {"annotate_parens", nil}, {"ling_stats", nil}}
	}
	chains := map[string][]step{
		"plain":     lingSteps(step{"count_chars", nil}),
		"lowercase": lingSteps(step{"lowercase_text", nil}),
		"resplit":   lingSteps(step{"filter_degenerate_sentences", meteor.Params{"max_chars": num(60)}}),
		"rename":    lingSteps(step{"set_field", meteor.Params{"field": {Str: "id"}, "value": {Str: "renamed"}}}),
		// The fixture's own spans are not its sentences: annotate_sentences
		// re-splits the text it leaves alone into as many spans.
		"resplit spans only": {{"annotate_negation", nil}, {"annotate_sentences", nil}, {"annotate_pronouns", nil},
			{"annotate_parens", nil}, {"ling_stats", nil}},
		"stats after a rewrite": {{"annotate_sentences", nil}, {"annotate_negation", nil}, {"annotate_pronouns", nil},
			{"annotate_parens", nil}, {"truncate_text", meteor.Params{"max": num(60)}}, {"ling_stats", nil}},
	}
	fixture := richRecord()
	// Short sentences with upper-case cues around richRecord's, which are
	// over 60 characters each.
	fixture["text"] = "Neither THIS nor (THAT) is NOT here. " + fixture["text"].(string) + " (It) is NOT kept, NOR are THEY."
	delete(fixture, "anns")
	// As many spans as annotate_sentences finds, each one byte long.
	spans := nlp.SplitSentences(fixture["text"].(string))
	for i := range spans {
		spans[i].End = spans[i].Start + 1
	}
	fixture["sentences"] = spans
	for name, chain := range chains {
		p := &dataflow.Plan{}
		n := p.Add(reg.Op("identity", nil))
		for _, st := range chain {
			n = p.Add(reg.Op(st.name, st.params), n)
		}
		res, _, err := dataflow.Execute(p, []dataflow.Record{fixture}, dataflow.ExecConfig{DoP: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := res[n.ID()]
		if len(got) != 1 {
			t.Fatalf("%s: %d records out, want 1", name, len(got))
		}
		want := fixture.Clone()
		for _, st := range chain {
			if ref, ok := refLingOps[st.name]; ok {
				ref(want)
			} else if err := reg.Op(st.name, st.params).InPlace(want); err != nil {
				t.Fatal(err)
			}
		}
		stored, ok := got[0]["ling_analysis"].(lingAnalysis)
		delete(got[0], "ling_analysis")
		if !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s: the chain differs from the reference closures:\ngot  %v\nwant %v", name, got[0], want)
		}
		if !ok || stored.id != want["id"] || !slices.Equal(stored.sentences, want["sentences"].([]nlp.Span)) ||
			stored.text != want["text"] && chain[len(chain)-2].name != "truncate_text" {
			t.Errorf("%s: the stored analysis is not of the record's final id, text and sentences", name)
		}
	}
}

// TestLingStatsMatchesMeasure: on every document of the four corpora, the
// linguistic branch's ling_stats, reading the annotators' analysis, equals
// ling.Measure over the record's text.
func TestLingStatsMatchesMeasure(t *testing.T) {
	s, _ := testSystem(t)
	const script = `
$x = read from 'in';
$s = annotate_sentences $x;
$c = filter_degenerate_sentences $s with max_chars=600;
$n = annotate_negation $c;
$p = annotate_pronouns $n;
$q = annotate_parens $p;
$l = ling_stats $q;
write $l to 'out';
`
	var in []dataflow.Record
	for _, kind := range textgen.CorpusKinds {
		for _, d := range s.Set.Corpus(kind).Docs {
			in = append(in, dataflow.Record{"id": d.ID, "text": d.Text})
		}
	}
	out := runScript(t, s.Registry(), script, in)
	if len(out) != len(in) {
		t.Fatalf("%d records out of %d", len(out), len(in))
	}
	for _, rec := range out {
		if _, ok := rec["ling_analysis"].(lingAnalysis); !ok {
			t.Fatalf("%s: no stored analysis", rec["id"])
		}
		if want := ling.Measure(rec["id"].(string), rec["text"].(string)); rec["ling"] != want {
			t.Errorf("%s: ling_stats %+v, want ling.Measure's %+v", rec["id"], rec["ling"], want)
		}
	}
	t.Logf("%d documents", len(out))
}

// TestEntitySortsMatchSortSlice: the entity operators' comparators sort
// through slices.SortFunc exactly as their less functions sorted through
// sort.Slice, ties included. Neither sort is stable, so this holds only
// while both are the one pdqsort; a Go release that changes either fails
// here.
func TestEntitySortsMatchSortSlice(t *testing.T) {
	r := rng.New(7)
	sorts := []struct {
		name string
		cmp  func(a, b EntityAnn) int
		less func(s []EntityAnn) func(i, j int) bool
	}{
		{"merge_entities", byStartEnd, func(s []EntityAnn) func(i, j int) bool {
			return func(i, j int) bool {
				if s[i].Start != s[j].Start {
					return s[i].Start < s[j].Start
				}
				return s[i].End < s[j].End
			}
		}},
		{"resolve_entity_overlaps", byStartLongestFirst, func(s []EntityAnn) func(i, j int) bool {
			return func(i, j int) bool {
				if s[i].Start != s[j].Start {
					return s[i].Start < s[j].Start
				}
				return s[i].End-s[i].Start > s[j].End-s[j].Start
			}
		}},
	}
	for trial := 0; trial < 4000; trial++ {
		ents := randomEntities(r)
		for _, srt := range sorts {
			got, want := slices.Clone(ents), slices.Clone(ents)
			slices.SortFunc(got, srt.cmp)
			sort.Slice(want, srt.less(want))
			if !slices.Equal(got, want) {
				t.Fatalf("%s, trial %d: slices.SortFunc and sort.Slice order %d mentions differently", srt.name, trial, len(ents))
			}
		}
	}
}

// randomEntities draws up to 200 mentions over few distinct starts and
// lengths, so most of them tie with others, and some repeat a surface.
func randomEntities(r *rng.RNG) []EntityAnn {
	ents := make([]EntityAnn, r.Intn(201))
	for i := range ents {
		start := r.Intn(1 + len(ents)/8)
		ents[i] = EntityAnn{Type: textgen.EntityType(r.Intn(3)), Method: Method(r.Intn(2)),
			Start: start, End: start + 1 + r.Intn(3), Surface: fmt.Sprint(r.Intn(1 + len(ents)/2))}
	}
	return ents
}

// refEntityOps are the entity operators that sorted through sort.Slice and
// grew their outputs by append, as they were.
var refEntityOps = map[string]func(dataflow.Record){
	"resolve_entity_overlaps": func(rec dataflow.Record) {
		ents := append([]EntityAnn(nil), get[[]EntityAnn](rec, "entities")...)
		sort.Slice(ents, func(i, j int) bool {
			if ents[i].Start != ents[j].Start {
				return ents[i].Start < ents[j].Start
			}
			return ents[i].End-ents[i].Start > ents[j].End-ents[j].Start
		})
		var out []EntityAnn
		lastEnd := map[Method]int{}
		for _, e := range ents {
			if e.Start < lastEnd[e.Method] {
				continue
			}
			out = append(out, e)
			lastEnd[e.Method] = e.End
		}
		rec["entities"] = out
	},
	"entity_names": func(rec dataflow.Record) {
		seen := map[string]bool{}
		var names []string
		for _, e := range get[[]EntityAnn](rec, "entities") {
			if !seen[e.Surface] {
				seen[e.Surface] = true
				names = append(names, e.Surface)
			}
		}
		sort.Strings(names)
		rec["names"] = names
	},
}

// TestEntityOpsMatchReference: resolve_entity_overlaps, which now keeps
// its mentions in the sorted copy, and entity_names, which now sorts and
// compacts every surface, equal the closures they replaced on random
// mention lists, an empty one and none, nil results included.
func TestEntityOpsMatchReference(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	r := rng.New(11)
	inputs := []dataflow.Record{{}, {"entities": []EntityAnn{}}}
	for trial := 0; trial < 500; trial++ {
		inputs = append(inputs, dataflow.Record{"entities": randomEntities(r)})
	}
	for name, ref := range refEntityOps {
		op := reg.Op(name, nil)
		for i, in := range inputs {
			got, want := in.Clone(), in.Clone()
			if err := op.InPlace(got); err != nil {
				t.Fatal(err)
			}
			ref(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, input %d: %v, want %v", name, i, got, want)
			}
		}
	}
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestAllocGateOps holds the analysis flow's per-document operator chains,
// run in place on richRecord as the executor runs them, to the allocations
// they cost: one ling.Analyze for the three annotators and ling_stats, no
// reflection in the sorts, and each output sized once. Ceilings go down
// when an operator is rewritten, never up; -v prints what each row
// measured.
func TestAllocGateOps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	s, _ := testSystem(t)
	reg := s.Registry()
	rows := []struct {
		name string
		ops  []string
		max  float64
	}{
		// Analyze's result and the mentions its scan spills, the stored
		// analysis, three anns copies and their boxing into the record,
		// ling_stats' sentence spans and its DocStats.
		{"linguistic_tail", []string{"annotate_negation", "annotate_pronouns", "annotate_parens", "ling_stats"}, 11},
		// Five output slices, each boxed into the record, merge_entities'
		// seen-set, and tla_removed's growth to richRecord's 12 TLAs.
		{"entity_tail", []string{"merge_entities", "resolve_entity_overlaps", "filter_tla_entities", "entity_names"}, 16},
		// The pos slice and its boxing, then one result per sentence: no
		// words buffer.
		{"pos_tag", []string{"pos_tag"}, 26},
		{"filter_degenerate_sentences", []string{"filter_degenerate_sentences"}, 0},
	}
	for _, row := range rows {
		rec, pristine := richRecord(), richRecord()
		var ops []*dataflow.Op
		var writes []string
		for _, name := range row.ops {
			op := reg.Op(name, nil)
			ops = append(ops, op)
			writes = append(writes, op.Writes...)
		}
		allocs := testing.AllocsPerRun(50, func() {
			for _, f := range writes {
				if v, ok := pristine[f]; ok {
					rec[f] = v
				} else {
					delete(rec, f)
				}
			}
			for _, op := range ops {
				if err := op.InPlace(rec); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("%-28s %5.1f allocs (ceiling %v)", row.name, allocs, row.max)
		if allocs > row.max {
			t.Errorf("%s: %.1f allocations, ceiling %v", row.name, allocs, row.max)
		}
	}
}

// planDigest is the sha256 of every Registry flow's Plan.String(), plain
// and optimized, as TestFlowPlansUnchanged renders them. The annotators'
// ling_analysis changed only Reads and Writes, not the order Optimize
// chooses.
const planDigest = "b3a8a8b2768dafdca3d80609fc11079afb7c41952687e51576048b45e3ad7e47"

// TestFlowPlansUnchanged pins every flow the registry builds, and the
// compiled ConsolidatedMeteorScript, plain and optimized.
func TestFlowPlansUnchanged(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	flows := map[string]func() *dataflow.Plan{
		"consolidated": reg.ConsolidatedFlow,
		"script": func() *dataflow.Plan {
			script, err := meteor.Parse(ConsolidatedMeteorScript)
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := meteor.Compile(script, reg)
			if err != nil {
				t.Fatal(err)
			}
			return compiled.Plan
		},
	}
	for _, web := range []bool{false, true} {
		for i, build := range []func(bool) *dataflow.Plan{reg.AnalysisFlow, reg.LinguisticFlow, reg.EntityFlow, reg.RelationFlow} {
			flows[fmt.Sprintf("%s/web=%v", []string{"analysis", "linguistic", "entity", "relation"}[i], web)] = func() *dataflow.Plan { return build(web) }
		}
	}
	names := make([]string, 0, len(flows))
	for name := range flows {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		for _, optimize := range []bool{false, true} {
			p := flows[name]()
			if optimize {
				dataflow.Optimize(p)
			}
			fmt.Fprintf(&b, "%s optimized=%v\n%s", name, optimize, p)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != planDigest {
		t.Errorf("flow plans digest %s, want %s:\n%s", got, planDigest, b.String())
	}
}
