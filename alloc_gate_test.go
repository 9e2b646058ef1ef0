package webtextie

// Zero-alloc gates for the IE hot path (ROADMAP item 2), the dynamic
// counterpart of the static allocfree/boxing/hotpathpurity checks: each
// //lintx:hotpath root runs as a fixed deterministic workload under
// testing.AllocsPerRun and must stay within the allocs/op ceiling set
// beside it below — the scan cores must stay at zero. The two evlog rows
// gate the log pillar the same way: a record's cost must not grow with
// what the sink already retains.

import (
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
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/trace"
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
	gateLog     evlog.Logger
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
		// A sink with every retention class full: past PinKeep Warns, past
		// TailKeep+ReservoirKeep Debugs.
		cfg := evlog.DefaultConfig(1)
		gateLog = evlog.NewSink(cfg).Logger("crawler.fetch")
		for i := 0; i < cfg.PinKeep+cfg.TailKeep+cfg.ReservoirKeep+8; i++ {
			gateLog.Warn("fetch.error", int64(i), trace.Int("attempt", int64(i)))
			gateLog.Debug("fetch.start", int64(i), trace.Int("attempt", int64(i)))
		}
	})
}

// allocWorkloads are the gated hot-path workloads. Each must be
// deterministic: same work, same allocations, every run. ceiling is the
// workload's allocs/op budget.
var allocWorkloads = []struct {
	name    string
	ceiling float64
	fn      func()
}{
	// The discarded result buffer stays on the stack.
	{"dict_find", 0, func() { _ = gateMatcher.Find(hotDoc) }},
	// The caller-owned-buffer entry is allocation-free.
	{"dict_find_append", 0, func() {
		dictBuf = gateMatcher.FindAppend(dictBuf[:0], hotDoc)
	}},
	// One span slice per document.
	{"nlp_sentences", 1, func() { _ = nlp.SplitSentences(hotDoc) }},
	// One token slice per call.
	{"nlp_tokenize", 1, func() { _ = nlp.Tokenize(hotDoc, 0) }},
	// Sentence spans + per-sentence token slices for the 4-sentence doc.
	{"nlp_sentence_tokens", 6, func() { _, _ = nlp.SentenceTokens(hotDoc) }},
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
	// One record into a full sink costs what rendering its identity once
	// costs — the attrs, the line, the totals key — however much the sink
	// already holds: no class re-renders what it kept to decide what goes.
	{"evlog_warn_full_sink", 12, func() {
		gateLog.Warn("fetch.error", 9000, trace.String("cause", "host down"), trace.Int("attempt", 3))
	}},
	{"evlog_debug_full_sink", 12, func() {
		gateLog.Debug("fetch.start", 9000, trace.String("url", "http://h0/p1"), trace.Int("depth", 3))
	}},
}

var (
	dictBuf          = make([]dict.Match, 0, 16)
	boilerClassifier = boiler.Default()
	probeSig         dedup.Signature
	gateLangID       = langid.New()
	gatePage         = strings.Repeat(hotDoc+" ", 20) // ~4 KB of English net text
)

// BenchmarkHotPath measures every gated workload (ns/op beside the
// allocs/op TestAllocGate enforces).
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

// TestAllocGate is the regression gate: every workload must stay within
// its ceiling (with +0.5 slack for AllocsPerRun rounding).
func TestAllocGate(t *testing.T) {
	gateSetup()
	for _, w := range allocWorkloads {
		t.Run(w.name, func(t *testing.T) {
			w.fn() // warm buffers: the gate measures steady state
			if got := testing.AllocsPerRun(100, w.fn); got > w.ceiling+0.5 {
				t.Errorf("%s: %.1f allocs/op breaks the ceiling %.0f", w.name, got, w.ceiling)
			}
		})
	}
}
