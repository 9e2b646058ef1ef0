package webtextie

// Zero-alloc gates for the IE hot path (ROADMAP item 2), the dynamic
// counterpart of the static allocfree/boxing/hotpathpurity checks: each
// //lintx:hotpath root runs as a fixed deterministic workload under
// testing.AllocsPerRun and must stay within the allocs/op budget
// committed in BENCH_PR7.json (regenerated with `make bench-pr7`).
// Budgets can only be re-baselined by regenerating the JSON, and hard
// per-workload ceilings below prevent a regenerated baseline from
// silently absorbing a regression — the scan cores must stay at zero.

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/boiler"
	"webtextie/internal/dedup"
	"webtextie/internal/htmlkit"
	"webtextie/internal/ie/dict"
	"webtextie/internal/langid"
	"webtextie/internal/ling"
	"webtextie/internal/nlp"
	"webtextie/internal/nlp/postag"
)

// hotDoc is the fixed document every workload chews on: multi-sentence
// ASCII prose with dictionary hits, pronouns, negations, parens, an
// abbreviation, and a decimal — every branch of the hot loops.
const hotDoc = "Alpha binds the beta receptor in approx. 1.5 hours. " +
	"It does not inhibit gamma (the control case). " +
	"Dr. Smith said these results were not conclusive, nor were theirs. " +
	"GAD-67 expression rose while alpha levels fell."

var (
	gateOnce    sync.Once
	gateMatcher *dict.Matcher
	gateBlocks  []htmlkit.Block
	gateIndex   *dedup.Index
	gateSents   []nlp.Span
	gateTagger  *postag.Tagger
	gateWords   []string
)

func gateSetup() {
	gateOnce.Do(func() {
		gateMatcher = dict.Build("gate", []string{"alpha", "beta", "gamma"}, dict.DefaultOptions())
		gateBlocks = []htmlkit.Block{
			{Text: "Navigation home about contact", Words: 4, LinkedWords: 4, Tag: "div"},
			{Text: strings.Repeat("prose word ", 20), Words: 40, LinkedWords: 0, Tag: "p"},
			{Text: "short footer", Words: 2, LinkedWords: 1, Tag: "div"},
		}
		gateIndex = dedup.NewIndex(0.9)
		probeSig = dedup.Sketch(hotDoc, 3)
		gateIndex.AddOrFind("seed", probeSig)
		gateSents = nlp.SplitSentences(hotDoc)
		// A tagger that knows half of hotDoc's first sentence and has to
		// guess the rest from suffix and shape.
		gateTagger = postag.Train([][]postag.TaggedToken{
			{{Word: "Alpha", Tag: "NNP"}, {Word: "binds", Tag: "VBZ"}, {Word: "the", Tag: "DT"}, {Word: "receptor", Tag: "NN"}, {Word: ".", Tag: "."}},
			{{Word: "It", Tag: "PRP"}, {Word: "rose", Tag: "VBD"}, {Word: "in", Tag: "IN"}, {Word: "hours", Tag: "NNS"}, {Word: ".", Tag: "."}},
		}, postag.DefaultConfig())
		for _, tok := range nlp.Tokenize(hotDoc[gateSents[0].Start:gateSents[0].End], 0) {
			gateWords = append(gateWords, tok.Text)
		}
	})
}

// allocWorkloads are the gated hot-path workloads. Each must be
// deterministic: same work, same allocations, every run. ceiling is the
// hard bound a regenerated BENCH_PR7.json may never raise a budget past.
var allocWorkloads = []struct {
	name    string
	ceiling float64
	fn      func()
}{
	// Find's single allocation is the fresh result buffer.
	{"dict_find", 1, func() { _ = gateMatcher.Find(hotDoc) }},
	// The caller-owned-buffer entry is allocation-free.
	{"dict_find_append", 0, func() {
		dictBuf = gateMatcher.FindAppend(dictBuf[:0], hotDoc)
	}},
	// One span slice per document.
	{"nlp_sentences", 1, func() { _ = nlp.SplitSentences(hotDoc) }},
	// One token slice per call.
	{"nlp_tokenize", 1, func() { _ = nlp.Tokenize(hotDoc, 0) }},
	// Sentence spans + per-sentence token slices for the 4-sentence doc.
	{"nlp_sentence_tokens", 8, func() { _, _ = nlp.SentenceTokens(hotDoc) }},
	// The annotation slice, sized by a counting pass.
	{"ling_analyze", 1, func() { _ = ling.Analyze("d1", hotDoc, gateSents) }},
	// The tag slice; the lattice is pooled scratch.
	{"postag_tag", 1, func() { _, _ = gateTagger.Tag(gateWords) }},
	// One label slice per page.
	{"boiler_classify", 1, func() { _ = boilerClassifier.Classify(gateBlocks) }},
	// Span scratch + shingle slice; no fold or join copies on ASCII text.
	{"dedup_sketch", 2, func() { _ = dedup.Sketch(hotDoc, 3) }},
	// Probing a warm index against a known duplicate touches only the
	// epoch-marked scratch: zero allocations.
	{"dedup_probe_dup", 0, func() { _, _ = gateIndex.AddOrFind("probe", probeSig) }},
	// The crawl's language filter on a page-sized text: counting, selection
	// and scoring all run in pooled scratch.
	{"langid_identify", 0, func() { _, _ = gateLangID.Identify(gatePage) }},
}

var (
	dictBuf          = make([]dict.Match, 0, 16)
	boilerClassifier = boiler.Default()
	probeSig         dedup.Signature
	gateLangID       = langid.New()
	gatePage         = strings.Repeat(hotDoc+" ", 20) // ~4 KB of English net text
)

// BenchmarkHotPath measures every gated workload; `make bench-pr7`
// freezes the results into BENCH_PR7.json as the committed budgets.
func BenchmarkHotPath(b *testing.B) {
	gateSetup()
	for _, w := range allocWorkloads {
		b.Run(w.name, func(b *testing.B) {
			w.fn() // warm buffers so steady-state is measured
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.fn()
			}
		})
	}
}

// loadAllocBudgets maps workload name -> committed allocs/op from
// BENCH_PR7.json.
func loadAllocBudgets(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("BENCH_PR7.json")
	if err != nil {
		t.Fatalf("reading BENCH_PR7.json (regenerate with `make bench-pr7`): %v", err)
	}
	var b benchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("parsing BENCH_PR7.json: %v", err)
	}
	out := map[string]float64{}
	for _, e := range b.Benchmarks {
		name, ok := strings.CutPrefix(e.Name, "BenchmarkHotPath/")
		if !ok {
			continue
		}
		allocs, ok := e.Metrics["allocs/op"]
		if !ok {
			t.Fatalf("BENCH_PR7.json entry %s has no allocs/op; regenerate with `make bench-pr7`", e.Name)
		}
		out[name] = allocs
	}
	return out
}

// TestAllocGate is the regression gate: every workload must stay within
// its committed allocs/op budget (with +0.5 slack for AllocsPerRun
// rounding) and within the hard ceiling.
func TestAllocGate(t *testing.T) {
	gateSetup()
	budgets := loadAllocBudgets(t)
	for _, w := range allocWorkloads {
		t.Run(w.name, func(t *testing.T) {
			budget, ok := budgets[w.name]
			if !ok {
				t.Fatalf("no committed budget for %s; regenerate BENCH_PR7.json with `make bench-pr7`", w.name)
			}
			if budget > w.ceiling {
				t.Fatalf("committed budget %.1f allocs/op exceeds the hard ceiling %.0f: "+
					"a regenerated baseline may not absorb a regression", budget, w.ceiling)
			}
			w.fn() // warm buffers: the gate measures steady state
			got := testing.AllocsPerRun(100, w.fn)
			if got > budget+0.5 {
				t.Errorf("%s: %.1f allocs/op, committed budget %.1f", w.name, got, budget)
			}
			if got > w.ceiling+0.5 {
				t.Errorf("%s: %.1f allocs/op breaks the hard ceiling %.0f", w.name, got, w.ceiling)
			}
		})
	}
}
