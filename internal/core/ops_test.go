package core

// Operator-level tests: each registry operator exercised in isolation
// through a tiny Meteor script, so both the operator semantics and the
// script/engine integration are covered.

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"webtextie/internal/dataflow"
	"webtextie/internal/htmlkit"
	"webtextie/internal/ling"
	"webtextie/internal/meteor"
	"webtextie/internal/nlp"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/trace"
	"webtextie/internal/relex"
	"webtextie/internal/rng"
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

// runScript runs a Meteor script that reads 'in' and writes 'out'.
func runScript(t *testing.T, reg *Registry, script string, in []dataflow.Record) []dataflow.Record {
	t.Helper()
	out, _, err := meteor.Run(script, reg, map[string][]dataflow.Record{"in": in}, false, dataflow.ExecConfig{DoP: 1})
	if err != nil {
		t.Fatalf("script %q: %v", script, err)
	}
	return out["out"]
}

// TestWebPretreatmentSharesOnePage: parse_html stores one parse of each
// page and the HTML operators after it read theirs from it. On synthweb
// pages the web head's fields are the kernels' own: its links are every
// <a href> start tag of Tokenize's raw stream, in order, and Parse's links
// (htmlkit holds those and Parse's title to ExtractLinks and Title over
// Tokenize), its repairs Repair's count over Tokenize.
func TestWebPretreatmentSharesOnePage(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	p := &dataflow.Plan{}
	reg.webPretreatment(p, p.Add(reg.Op("identity", nil)))
	res, _, err := dataflow.Execute(p, rawPages(s), dataflow.ExecConfig{DoP: 2})
	if err != nil {
		t.Fatal(err)
	}
	sink := res[p.Sinks()[0].ID()]
	withLinks, withTitle := 0, 0
	for _, r := range sink {
		html := r["html"].(string)
		page := htmlkit.Parse(html)
		if !reflect.DeepEqual(r["html_page"], page) {
			t.Errorf("%s: the stored page is not Parse(html)", r["id"])
		}
		tokens := htmlkit.Tokenize(html)
		var hrefs []string
		for _, tok := range tokens {
			if h, _ := tok.Attr("href"); tok.Type == htmlkit.StartTag && tok.Name == "a" && h != "" {
				hrefs = append(hrefs, h)
			}
		}
		links := r["links"].([]htmlkit.Link)
		var got []string
		for _, l := range links {
			got = append(got, l.Href)
		}
		if !slices.Equal(got, hrefs) || !reflect.DeepEqual(links, page.Links) {
			t.Errorf("%s: links %v, want the hrefs %v", r["id"], links, hrefs)
		}
		if r["title"] != page.Title {
			t.Errorf("%s: title %q, want %q", r["id"], r["title"], page.Title)
		}
		if _, stats := htmlkit.Repair(tokens); r["repairs"] != stats.Total() {
			t.Errorf("%s: repairs %v, want %d", r["id"], r["repairs"], stats.Total())
		}
		if len(links) > 0 {
			withLinks++
		}
		if page.Title != "" {
			withTitle++
		}
	}
	t.Logf("%d pages through the web head, %d with links, %d with a title", len(sink), withLinks, withTitle)
	if withLinks == 0 || withTitle == 0 {
		t.Fatalf("%d pages through the web head, %d with links, %d with a title: want some of each", len(sink), withLinks, withTitle)
	}
}

// TestHTMLOperatorsWithoutParseHTML: an HTML operator on a record that
// parse_html never saw parses the page itself and fills the same fields.
func TestHTMLOperatorsWithoutParseHTML(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	pages := rawPages(s)
	for _, op := range []string{"repair_markup", "boilerplate_detect", "extract_links", "extract_title"} {
		alone := runOp(t, reg, op, pages)
		parsed := runScript(t, reg, "$x = read from 'in';\n$p = parse_html $x;\n$y = "+op+" $p;\nwrite $y to 'out';\n", pages)
		if len(alone) != len(pages) || len(parsed) != len(pages) {
			t.Fatalf("%s: %d and %d records out of %d", op, len(alone), len(parsed), len(pages))
		}
		byID := map[any]dataflow.Record{}
		for _, r := range parsed {
			byID[r["id"]] = r
		}
		for _, r := range alone {
			for _, f := range []string{"repairs", "text", "blocks_total", "blocks_content", "links", "title"} {
				if !reflect.DeepEqual(r[f], byID[r["id"]][f]) {
					t.Errorf("%s on %s: %s differs without parse_html", op, r["id"], f)
				}
			}
		}
	}
}

// TestHTMLOperatorsAfterRewrite: an operator that rewrites html after
// parse_html leaves a page of other HTML behind, and extract_links reads
// the rewritten page, not the stored one.
func TestHTMLOperatorsAfterRewrite(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	pages := rawPages(s)
	out := runScript(t, reg, `$x = read from 'in';
$p = parse_html $x;
$s = strip_scripts $p;
$l = extract_links $s;
write $l to 'out';
`, pages)
	stale := 0
	for _, r := range out {
		links := r["links"].([]htmlkit.Link)
		if want := htmlkit.Parse(r["html"].(string)).Links; !reflect.DeepEqual(links, want) {
			t.Errorf("%s: links %v, want the rewritten page's %v", r["id"], links, want)
		}
		if len(r["html_page"].(htmlkit.Page).Links) > 0 {
			stale++
		}
	}
	if len(out) != len(pages) || stale == 0 {
		t.Fatalf("%d of %d records out, %d with links before the rewrite: want all, and some", len(out), len(pages), stale)
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
		"html_page": htmlkit.Parse(html), "links": htmlkit.Parse(html).Links,
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

// TestInPlaceMatchesFn: every operator that fills named fields has an
// in-place form, and it does on the record itself exactly what Fn emits
// from a clone; filters and the operators that emit 1:N or build a new
// record (Writes "*") have none.
func TestInPlaceMatchesFn(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	params := meteor.Params{"type": {Str: "gene"}, "keep": {Str: "id text"}, "from": {Str: "a"}, "to": {Str: "b"},
		"field": {Str: "n"}, "value": {Str: "v"}, "rate": {Num: 1, IsNum: true}}
	inPlace := 0
	for _, name := range opNames(reg) {
		op, err := reg.Resolve(name, params)
		if err != nil {
			t.Fatalf("resolve %q: %v", name, err)
		}
		if op.InPlace == nil {
			if len(op.Writes) > 0 && !slices.Contains(op.Writes, "*") {
				t.Errorf("%s fills fields %v but has no in-place form", op.Name, op.Writes)
			}
			continue
		}
		inPlace++
		if op.Filter {
			t.Errorf("filter %s has an in-place form", op.Name)
		}
		var outs []dataflow.Record
		if err := op.Fn(richRecord(), func(r dataflow.Record) { outs = append(outs, r) }); err != nil || len(outs) != 1 {
			t.Errorf("%s: Fn returned %v with %d emissions, want one", op.Name, err, len(outs))
			continue
		}
		rec := richRecord().Clone()
		if err := op.InPlace(rec); err != nil {
			t.Errorf("%s: in place: %v", op.Name, err)
		}
		if !reflect.DeepEqual(rec, outs[0]) {
			t.Errorf("%s: the in-place form differs from Fn's emission", op.Name)
		}
	}
	t.Logf("%d operators run in place", inPlace)
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

// entityBranchScript is Fig 2's entity branch on text input: tokens, POS,
// then the dictionary and the ML tagger of each class.
const entityBranchScript = `
$x  = read from 'in';
$s  = annotate_sentences $x;
$t  = annotate_tokens $s;
$p  = pos_tag $t;
$dg = annotate_entities_dict $p  with type=gene;
$dd = annotate_entities_dict $dg with type=drug;
$ds = annotate_entities_dict $dd with type=disease;
$mg = annotate_entities_ml   $ds with type=gene;
$md = annotate_entities_ml   $mg with type=drug;
$ms = annotate_entities_ml   $md with type=disease;
write $ms to 'out';
`

// noTokensScript runs an ML tagger on a record annotate_tokens never saw.
const noTokensScript = `
$x = read from 'in';
$s = annotate_sentences $x;
$m = annotate_entities_ml $s with type=gene;
write $m to 'out';
`

// mlEntities returns the ML mentions of class t in ents.
func mlEntities(ents []EntityAnn, t textgen.EntityType) []EntityAnn {
	var out []EntityAnn
	for _, e := range ents {
		if e.Method == ML && e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// TestOpMLRunOnOneSentenceOf10kTokens is Fig 3a's degenerate input run
// through the entity branch: one "sentence" of 10k tokens. The POS tagger
// fails on it and the document goes on without it; the ML taggers decode
// it, nothing is quarantined, and every class's mentions are those its own
// Extract finds in the text.
func TestOpMLRunOnOneSentenceOf10kTokens(t *testing.T) {
	s, _ := testSystem(t)
	// Medline abstracts with every sentence end taken out.
	var b strings.Builder
	r := rng.New(5)
	for i := 0; b.Len() < 60000; i++ {
		b.WriteString(strings.NewReplacer(".", ",", "?", ",", "!", ",").Replace(s.Set.Generator.Doc(r, textgen.Medline, fmt.Sprint("run-on", i)).Text))
		b.WriteString(" ")
	}
	text := b.String()
	out, stats, err := meteor.Run(entityBranchScript, s.Registry(), map[string][]dataflow.Record{
		"in": {rec("id", "d", "text", text)}}, false, dataflow.ExecConfig{DoP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalErrors() != 0 || stats.TotalQuarantined() != 0 || len(out["out"]) != 1 {
		t.Fatalf("%d errors, %d quarantined, %d records out; want 0, 0, 1", stats.TotalErrors(), stats.TotalQuarantined(), len(out["out"]))
	}
	r0 := out["out"][0]
	if toks := r0["tokens"].([][]nlp.TokenSpan); len(toks) != 1 || len(toks[0]) < 10000 {
		t.Fatalf("want one sentence of at least 10k tokens, got %d sentences", len(toks))
	}
	if r0["pos_failed"] != 1 {
		t.Errorf("pos_failed = %v, want the one sentence", r0["pos_failed"])
	}
	ents := r0["entities"].([]EntityAnn)
	for _, et := range textgen.EntityTypes {
		got, want := mlEntities(ents, et), s.ExtractML(et, text)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("%v: %d ML mentions, Extract finds %d", et, len(got), len(want))
		}
	}
}

// TestOpMLDecodesOncePerRecord: the first ML node decodes every class and
// stores the matches; a later one takes its class's matches from the
// record, which needs no tokens, and both equal each class's Extract.
func TestOpMLDecodesOncePerRecord(t *testing.T) {
	s, _ := testSystem(t)
	reg := s.Registry()
	var text string
	for r, i := rng.New(6), 0; i < 5; i++ {
		text += s.Set.Generator.Doc(r, textgen.Medline, fmt.Sprint("d", i)).Text + " "
	}
	_, toks := nlp.SentenceTokens(text)
	first := runOp(t, reg, "annotate_entities_ml with type=gene", []dataflow.Record{rec("id", "d", "text", text, "tokens", toks)})[0]
	if _, ok := first["crf_matches"]; !ok {
		t.Fatal("the first ML node stored no matches")
	}
	delete(first, "tokens")
	later := runOp(t, reg, "annotate_entities_ml with type=drug", []dataflow.Record{first})[0]
	ents := later["entities"].([]EntityAnn)
	for _, et := range []textgen.EntityType{textgen.Gene, textgen.Drug} {
		if got, want := mlEntities(ents, et), s.ExtractML(et, text); len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("%v: %v, Extract %v", et, got, want)
		}
	}
}

// TestOpMLWithoutTokensQuarantined: the ML taggers read the record's
// tokens, so a script that leaves out annotate_tokens quarantines the
// record with its lineage pinned, instead of passing it on with no ML
// mentions.
func TestOpMLWithoutTokensQuarantined(t *testing.T) {
	s, _ := testSystem(t)
	tr := trace.NewRecorder(trace.DefaultConfig(1))
	out, stats, err := meteor.Run(noTokensScript, s.Registry(), map[string][]dataflow.Record{
		"in": {rec("id", "d", "text", "The BRCA1 gene regulates growth.")}}, false,
		dataflow.ExecConfig{DoP: 1, TraceKey: "id", Set: pillars.Set{Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["out"]) != 0 || len(stats.Quarantined) != 1 {
		t.Fatalf("%d records out, %d quarantined; want 0, 1", len(out["out"]), len(stats.Quarantined))
	}
	q := stats.Quarantined[0]
	if q.Op != "annotate_entities_ml:gene" || !strings.Contains(q.Err, "tokens") {
		t.Fatalf("quarantined by %s: %s", q.Op, q.Err)
	}
	pinned := false
	for _, tc := range tr.Snapshot().Traces {
		pinned = pinned || (tc.ID.String() == q.Trace && tc.Pinned)
	}
	if !pinned {
		t.Errorf("the quarantined record's lineage %q is not pinned", q.Trace)
	}
}

// FuzzParseCompile drives the Meteor parser and compiler with the real
// operator registry: any input may be rejected, none may panic, and
// parsing the same input twice gives the same script or the same error.
func FuzzParseCompile(f *testing.F) {
	s, _ := testSystem(f)
	reg := s.Registry()
	for _, src := range []string{ConsolidatedMeteorScript, entityBranchScript, noTokensScript,
		"$x = read from 'in';\n$y = project $x with keep='id text';\nwrite $y to 'out';\n",
		"$x = read from 'in';\n$y = sample $x with rate=0.5;\n$z = union $x, $y;\nwrite $z to 'o';\n",
		"$x = read from 'in'; $y = limit $x with n=-1e308; write $y to 'o';",
		"$y = pos_tag $undefined; write $y to 'o';",
		"-- only a comment", "", "$x = read from 'a'; write $x to", "$x = nosuch_op $x with type=gene;",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, errA := meteor.Parse(src)
		b, errB := meteor.Parse(src)
		if fmt.Sprintf("%+v %v", a, errA) != fmt.Sprintf("%+v %v", b, errB) {
			t.Fatalf("Parse(%q) twice: %+v, %v then %+v, %v", src, a, errA, b, errB)
		}
		if errA == nil {
			_, _ = meteor.Compile(a, reg)
		}
	})
}
