package core

// Operator-level tests: each registry operator exercised in isolation
// through a tiny Meteor script, so both the operator semantics and the
// script/engine integration are covered.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"webtextie/internal/dataflow"
	"webtextie/internal/htmlkit"
	"webtextie/internal/ling"
	"webtextie/internal/meteor"
	"webtextie/internal/nlp"
	"webtextie/internal/relex"
	"webtextie/internal/textgen"
)

// runOp executes `$x = read from 'in'; $y = <stmt>; write $y to 'out';`.
func runOp(t *testing.T, reg *Registry, stmt string, in []dataflow.Record) []dataflow.Record {
	t.Helper()
	script := "$x = read from 'in';\n$y = " + stmt + " $x;\nwrite $y to 'out';\n"
	// Allow parameterized statements written as "op ... with k=v" by
	// splicing the input variable before "with".
	if i := strings.Index(stmt, " with "); i >= 0 {
		script = "$x = read from 'in';\n$y = " + stmt[:i] + " $x " + stmt[i+1:] + ";\nwrite $y to 'out';\n"
	}
	out, _, err := meteor.Run(script, reg, map[string][]dataflow.Record{"in": in},
		false, dataflow.ExecConfig{DoP: 1})
	if err != nil {
		t.Fatalf("script %q: %v", script, err)
	}
	return out["out"]
}

func rec(kv ...any) dataflow.Record {
	r := dataflow.Record{}
	for i := 0; i+1 < len(kv); i += 2 {
		r[kv[i].(string)] = kv[i+1]
	}
	return r
}

func TestOpFilterLength(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	out := runOp(t, reg, "filter_length with min=5, max=10",
		[]dataflow.Record{rec("id", "a", "text", "hi"), rec("id", "b", "text", "just right"),
			rec("id", "c", "text", "way too long for the filter")})
	if len(out) != 1 || out[0]["id"] != "b" {
		t.Fatalf("out = %v", out)
	}
}

func TestOpCounts(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	out := runOp(t, reg, "count_words", []dataflow.Record{rec("id", "a", "text", "one two three")})
	if out[0]["words"] != 3 {
		t.Fatalf("words = %v", out[0]["words"])
	}
	out = runOp(t, reg, "count_chars", []dataflow.Record{rec("id", "a", "text", "abcd")})
	if out[0]["chars"] != 4 {
		t.Fatalf("chars = %v", out[0]["chars"])
	}
}

func TestOpProjectAndRename(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	out := runOp(t, reg, "project with keep='id'",
		[]dataflow.Record{rec("id", "a", "text", "x", "junk", 1)})
	if _, ok := out[0]["junk"]; ok {
		t.Fatal("project kept junk")
	}
	if out[0]["id"] != "a" {
		t.Fatal("project dropped id")
	}
	out = runOp(t, reg, "rename_field with from='text', to='body'",
		[]dataflow.Record{rec("text", "x")})
	if out[0]["body"] != "x" {
		t.Fatalf("rename: %v", out[0])
	}
}

func TestOpSampleDeterministic(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	var in []dataflow.Record
	for i := 0; i < 200; i++ {
		in = append(in, rec("id", fmt.Sprint("doc", i)))
	}
	a := runOp(t, reg, "sample with rate=0.3", in)
	b := runOp(t, reg, "sample with rate=0.3", in)
	if len(a) != len(b) {
		t.Fatalf("sample not deterministic: %d vs %d", len(a), len(b))
	}
	if len(a) < 30 || len(a) > 90 {
		t.Errorf("sample rate off: %d/200", len(a))
	}
}

func TestOpDedupe(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	out := runOp(t, reg, "dedupe_exact", []dataflow.Record{
		rec("id", "a", "text", "same"), rec("id", "b", "text", "same"),
		rec("id", "c", "text", "different")})
	if len(out) != 2 {
		t.Fatalf("dedupe kept %d", len(out))
	}
}

func TestOpMimeFilter(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	out := runOp(t, reg, "mime_filter", []dataflow.Record{
		rec("id", "http://x/p.html", "html", "<html><body>text page</body></html>"),
		rec("id", "http://x/f.pdf", "html", "%PDF-1.4 binary blob")})
	if len(out) != 1 || out[0]["id"] != "http://x/p.html" {
		t.Fatalf("mime filter: %v", out)
	}
}

func TestOpBoilerplateAndMarkup(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	html := `<html><body><nav><a href="/">Home</a><a href="/a">A</a></nav>` +
		`<p>` + strings.Repeat("real content words here ", 10) + `</p></body></html>`
	out := runOp(t, reg, "boilerplate_detect", []dataflow.Record{rec("id", "u", "html", html)})
	text := out[0]["text"].(string)
	if !strings.Contains(text, "real content") || strings.Contains(text, "Home") {
		t.Fatalf("net text = %q", text)
	}
	out = runOp(t, reg, "remove_markup", []dataflow.Record{rec("id", "u", "html", html)})
	if !strings.Contains(out[0]["text"].(string), "Home") {
		t.Fatal("remove_markup should keep everything")
	}
}

func TestOpLanguageFilter(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	en := "The patients were treated with the new drug and the results showed a significant reduction in tumor size across all groups that received it."
	de := "Die Patienten wurden mit dem neuen Medikament behandelt und die Ergebnisse zeigten eine deutliche Verringerung der Tumorgröße in allen Gruppen."
	out := runOp(t, reg, "language_filter with lang=en", []dataflow.Record{
		rec("id", "en", "text", en), rec("id", "de", "text", de)})
	if len(out) != 1 || out[0]["id"] != "en" {
		t.Fatalf("language filter: %v", out)
	}
}

func TestOpSentencesTokensPos(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	script := `
$x = read from 'in';
$s = annotate_sentences $x;
$t = annotate_tokens $s;
$p = pos_tag $t;
write $p to 'out';
`
	out, _, err := meteor.Run(script, reg, map[string][]dataflow.Record{
		"in": {rec("id", "d", "text", "The drug works. The gene regulates growth.")}},
		false, dataflow.ExecConfig{DoP: 1})
	if err != nil {
		t.Fatal(err)
	}
	r0 := out["out"][0]
	sents := r0["sentences"].([]nlp.Span)
	if len(sents) != 2 {
		t.Fatalf("sentences = %d", len(sents))
	}
	toks := r0["tokens"].([][]nlp.TokenSpan)
	if len(toks) != 2 || len(toks[0]) != 4 {
		t.Fatalf("tokens = %v", toks)
	}
	pos := r0["pos"].([][]string)
	if len(pos) != 2 || len(pos[0]) != len(toks[0]) {
		t.Fatalf("pos = %v", pos)
	}
}

func TestOpEntityPipeline(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	// Use a dictionary name guaranteed to exist.
	var gene string
	for _, e := range s.Set.Lexicon.ByType(textgen.Gene) {
		if e.InDictionary && !strings.Contains(e.Name, " ") {
			gene = e.Name
			break
		}
	}
	if gene == "" {
		t.Skip("no single-word dictionary gene")
	}
	script := `
$x = read from 'in';
$s = annotate_sentences $x;
$t = annotate_tokens $s;
$d = annotate_entities_dict $t with type=gene;
$m = merge_entities $d;
$c = count_entities $m;
write $c to 'out';
`
	text := "The " + gene + " gene regulates the pathway. The " + gene + " gene was studied."
	out, _, err := meteor.Run(script, reg, map[string][]dataflow.Record{
		"in": {rec("id", "d", "text", text)}}, false, dataflow.ExecConfig{DoP: 1})
	if err != nil {
		t.Fatal(err)
	}
	r0 := out["out"][0]
	if r0["n_entities"].(int) < 2 {
		t.Fatalf("entities = %v", r0["entities"])
	}
	ents := r0["entities"].([]EntityAnn)
	for _, e := range ents {
		if text[e.Start:e.End] != e.Surface {
			t.Fatalf("span mismatch: %+v", e)
		}
	}
}

func TestOpSplitSentenceRecords(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	script := `
$x = read from 'in';
$s = annotate_sentences $x;
$r = split_sentence_records $s;
write $r to 'out';
`
	out, _, err := meteor.Run(script, reg, map[string][]dataflow.Record{
		"in": {rec("id", "d", "text", "First sentence. Second one. Third here.")}},
		false, dataflow.ExecConfig{DoP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["out"]) != 3 {
		t.Fatalf("sentence records = %d", len(out["out"]))
	}
	for _, r := range out["out"] {
		if r["doc_id"] != "d" {
			t.Fatalf("doc_id = %v", r["doc_id"])
		}
	}
}

func TestOpFilterTLA(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	in := rec("id", "d", "entities", []EntityAnn{
		{Type: textgen.Gene, Method: ML, Surface: "FAQ", Start: 0, End: 3},
		{Type: textgen.Gene, Method: ML, Surface: "BRCA1", Start: 10, End: 15},
		{Type: textgen.Gene, Method: Dict, Surface: "TLA", Start: 20, End: 23},
	})
	out := runOp(t, reg, "filter_tla_entities", []dataflow.Record{in})
	ents := out[0]["entities"].([]EntityAnn)
	if len(ents) != 2 {
		t.Fatalf("entities after TLA filter = %v", ents)
	}
	removed := out[0]["tla_removed"].([]EntityAnn)
	if len(removed) != 1 || removed[0].Surface != "FAQ" {
		t.Fatalf("removed = %v", removed)
	}
}

func TestOpKeepEntities(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	in := rec("id", "d", "entities", []EntityAnn{
		{Type: textgen.Gene, Method: ML, Surface: "A"},
		{Type: textgen.Drug, Method: Dict, Surface: "B"},
	})
	out := runOp(t, reg, "keep_entities_of_type with type=drug", []dataflow.Record{in})
	ents := out[0]["entities"].([]EntityAnn)
	if len(ents) != 1 || ents[0].Surface != "B" {
		t.Fatalf("by type: %v", ents)
	}
	out = runOp(t, reg, "keep_entities_by_method with method=ml", []dataflow.Record{in})
	ents = out[0]["entities"].([]EntityAnn)
	if len(ents) != 1 || ents[0].Surface != "A" {
		t.Fatalf("by method: %v", ents)
	}
}

func TestOpUnknownTypeRejected(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	if _, err := reg.Resolve("annotate_entities_dict", meteor.Params{"type": {Str: "planet"}}); err == nil {
		t.Fatal("unknown entity type accepted")
	}
	if _, err := reg.Resolve("no_such_operator", meteor.Params{}); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

func TestOpLimit(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	var in []dataflow.Record
	for i := 0; i < 50; i++ {
		in = append(in, rec("id", fmt.Sprint(i)))
	}
	out := runOp(t, reg, "limit with n=7", in)
	if len(out) != 7 {
		t.Fatalf("limit kept %d", len(out))
	}
}

func TestOpDedupeNear(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	var b strings.Builder
	for i := 0; i < 80; i++ {
		fmt.Fprintf(&b, "sentence %d covers topic%d and topic%d in detail. ", i, i*3%17, i*5%23)
	}
	base := b.String()
	in := []dataflow.Record{
		rec("id", "orig", "text", base),
		rec("id", "mirror", "text", base+" hosted mirror copy notice"),
		rec("id", "other", "text", strings.Repeat("totally different shopping prices and deals online today ", 12)),
	}
	out := runOp(t, reg, "dedupe_near with threshold=0.7", in)
	if len(out) != 2 {
		t.Fatalf("dedupe_near kept %d records: %v", len(out), out)
	}
	for _, r := range out {
		if r["id"] == "mirror" {
			t.Fatal("near-duplicate mirror survived")
		}
	}
}

func TestDedupeNearCatchesSynthwebMirrors(t *testing.T) {
	// End-to-end: crawl pages including mirrors; dedupe_near must remove
	// near-copies that dedupe_exact misses.
	s, _ := testSystem(t)
	reg := s.Registry()
	var recs []dataflow.Record
	seenMirror := false
	for _, h := range s.Set.Web.Hosts {
		for i := 2; i < h.Pages && len(recs) < 250; i++ {
			p, err := s.Set.Web.Fetch("http://" + h.Name + "/p" + itoa(i) + ".html")
			if err != nil || !p.MIME.IsTextual() || p.NetText == "" {
				continue
			}
			if p.MirrorOf != "" {
				// Include the mirror's source too, so the pair is present.
				if src, err := s.Set.Web.Fetch(p.MirrorOf); err == nil && src.NetText != "" {
					seenMirror = true
					recs = append(recs,
						dataflow.Record{"id": src.URL, "text": src.NetText},
						dataflow.Record{"id": p.URL, "text": p.NetText})
				}
			}
		}
	}
	if !seenMirror {
		t.Skip("no mirrors in crawled sample")
	}
	exact := runOp(t, reg, "dedupe_exact", recs)
	near := runOp(t, reg, "dedupe_near with threshold=0.75", recs)
	if len(near) >= len(exact) {
		t.Fatalf("near-dedup (%d kept) no better than exact (%d kept) on %d records",
			len(near), len(exact), len(recs))
	}
}

// richRecord builds a record carrying every field an operator reads: html,
// 24 sentences of text with their spans, tokens and linguistic annotations,
// links, relations, and 24 entity mentions of both methods in deliberately
// unsorted order (same-start overlaps, duplicates, TLAs). Every call
// returns a fresh, deep-equal record.
func richRecord() dataflow.Record {
	var b strings.Builder
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, "The ABC%d gene (TLA) does not regulate tumor growth in group %d, but it inhibits the XYZ pathway. ", i, i)
	}
	text := strings.TrimSpace(b.String())
	html := `<html><head><title>Fixture</title><script>var x = 1;</script></head><body>` +
		`<nav><a href="/home">Home</a></nav><p>` + text + `</p><p><a href="/next">next page</a></body></html>`
	sents := nlp.SplitSentences(text)
	toks := make([][]nlp.TokenSpan, len(sents))
	for i, s := range sents {
		toks[i] = nlp.Tokenize(text[s.Start:s.End], s.Start)
	}
	var ents []EntityAnn
	for i := 23; i >= 0; i-- { // descending starts; every third sentence doubly covered
		start := sents[i].Start + 4
		m := Method(i % 2)
		ents = append(ents, EntityAnn{Type: textgen.Gene, Method: m, Start: start, End: start + 3, Surface: text[start : start+3]})
		if i%3 == 0 {
			ents = append(ents,
				EntityAnn{Type: textgen.Gene, Method: m, Start: start, End: start + 5, Surface: text[start : start+5]},
				EntityAnn{Type: textgen.Drug, Method: 1 - m, Start: start, End: start + 3, Surface: text[start : start+3]})
		}
	}
	a, c := ents[0], ents[5]
	return dataflow.Record{
		"id": "http://fixture.example/p1.html", "html": html, "text": text,
		"html_tokens": htmlkit.Tokenize(html), "links": htmlkit.ExtractLinks(htmlkit.Tokenize(html)),
		"sentences": sents, "tokens": toks, "entities": ents,
		"anns": ling.Analyze("fixture", text, sents),
		"relations": []relex.Relation{{Sentence: 0, Trigger: "inhibits", Kind: "regulation",
			A: relex.Mention{Type: "gene", Start: a.Start, End: a.End, Surface: a.Surface},
			B: relex.Mention{Type: "gene", Start: c.Start, End: c.End, Surface: c.Surface}}},
		"a": "renamed", "n": 7,
	}
}

// TestOperatorContract holds every registered operator to what its row
// declares, on one rich record: the input record is left exactly as it
// was, a filter emits the identical record or nothing, and any other
// operator changes only fields listed in its Writes.
func TestOperatorContract(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	if fx := richRecord(); len(fx["entities"].([]EntityAnn)) < 20 || len(fx["sentences"].([]nlp.Span)) < 20 {
		t.Fatal("fixture too small: want at least 20 entities and 20 sentences")
	}
	params := meteor.Params{"type": {Str: "gene"}, "keep": {Str: "id text"}, "from": {Str: "a"}, "to": {Str: "b"},
		"field": {Str: "n"}, "value": {Str: "v"}, "rate": {Num: 1, IsNum: true}}
	for _, name := range opNames(reg) {
		op, err := reg.Resolve(name, params)
		if err != nil {
			t.Errorf("resolve %q: %v", name, err)
			continue
		}
		in, pristine := richRecord(), richRecord()
		var outs []dataflow.Record
		if err := op.Fn(in, func(r dataflow.Record) { outs = append(outs, r) }); err != nil {
			t.Errorf("%s: failed on the fixture: %v", op.Name, err)
		}
		if !reflect.DeepEqual(in, pristine) {
			t.Errorf("%s mutates its input record", op.Name)
		}
		if len(outs) == 0 {
			t.Errorf("%s emits nothing on the fixture", op.Name)
		}
		writes := map[string]bool{}
		for _, f := range op.Writes {
			writes[f] = true
		}
		for _, out := range outs {
			var changed []string
			for f := range out {
				if !reflect.DeepEqual(out[f], pristine[f]) {
					changed = append(changed, f)
				}
			}
			for f := range pristine {
				if _, kept := out[f]; !kept {
					changed = append(changed, f)
				}
			}
			sort.Strings(changed)
			if op.Filter && len(changed) > 0 {
				t.Errorf("filter %s changed fields %v", op.Name, changed)
			}
			for _, f := range changed {
				if !writes[f] && !writes["*"] {
					t.Errorf("%s changed field %q outside its declared Writes %v", op.Name, f, op.Writes)
				}
			}
		}
	}
}

// TestFanOutAfterMergeEntities: clones made at a fan-out share their field
// values, so both readers of merge_entities see the same entities slice —
// under -race this catches an operator that sorts or edits it in place.
func TestFanOutAfterMergeEntities(t *testing.T) {
	s, _ := testSystem(t)
	script := `
$x = read from 'in';
$m = merge_entities $x;
$r = resolve_entity_overlaps $m;
$n = entity_names $m;
write $r to 'resolved';
write $n to 'names';
`
	in := make([]dataflow.Record, 64)
	for i := range in {
		in[i] = richRecord()
	}
	run := func(dop int) map[string][]dataflow.Record {
		out, _, err := meteor.Run(script, s.Registry(), map[string][]dataflow.Record{"in": in},
			false, dataflow.ExecConfig{DoP: dop})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := run(4), run(1)
	if len(got["resolved"]) != len(in) || len(got["names"]) != len(in) {
		t.Fatalf("sinks hold %d and %d records, want %d each", len(got["resolved"]), len(got["names"]), len(in))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("DoP 4 and DoP 1 disagree after the fan-out")
	}
}
