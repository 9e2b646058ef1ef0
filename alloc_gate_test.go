package webtextie

// The allocation gate: the repo's one allocation discipline. Every kernel
// the benchmark traces (BENCHMARK.json per_layer, bench/spans.go) has
// exactly one row here, named as the benchmark names it, run on a fixed
// in-file input and held to the mallocs/op and bytes/op it costs today —
// ceilings are ratcheted down as a kernel is rewritten, never up. The
// scan cores stay at zero. TestAllocGateScaling holds the same rows to
// linear growth, so a cost that is quadratic in the input fails a test
// even where its count per call looks harmless. The extra rows gate
// entries no benchmark layer brackets; the two evlog rows gate the log
// pillar the same way: a record's cost must not grow with what the sink
// already retains.

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/boiler"
	"webtextie/internal/classify"
	"webtextie/internal/dedup"
	"webtextie/internal/htmlkit"
	"webtextie/internal/ie/crf"
	"webtextie/internal/ie/dict"
	"webtextie/internal/langid"
	"webtextie/internal/ling"
	"webtextie/internal/mimetype"
	"webtextie/internal/nlp"
	"webtextie/internal/nlp/postag"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/trace"
	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// hotDoc is the fixed document the text kernels chew on: multi-sentence
// ASCII prose with dictionary hits, pronouns, negations, parens, an
// abbreviation, and a decimal — every branch of the hot loops.
const (
	hotSentence = "Alpha binds the beta receptor in approx. 1.5 hours."
	hotDoc      = hotSentence + " " +
		"It does not inhibit gamma (the control case). " +
		"Dr. Smith said these results were not conclusive, nor were theirs. " +
		"GAD-67 expression rose while alpha levels fell."
)

// hotHTML is the fixed page the HTML kernels chew on, with the faults
// the crawl meets daily: raw-text elements holding markup, unquoted
// attributes, entities, unclosed <p>/<li>/<td>/<div>, misnested inline
// tags and a stray end tag.
const hotHTML = `<!DOCTYPE html>
<html><head><title>Beta receptor binding &amp; inhibition</title>
<style>body { margin: 0 } .nav a { color: #036 }</style>
<script>var t = "</p>"; if (a < b) { track("page"); }</script>
</head>
<body>
<div class="nav"><a href="/">Home</a> <a href="/p1.html">Genes</a> <a href="http://other.example/p2.html">Drugs</a> <a href=/about>About</a></div>
<h1>Beta receptor binding</h1>
<p>` + hotDoc + `
<p>Dr. Smith said these results were not conclusive. GAD-67 expression rose while <b>alpha <i>levels</b> fell</i>.</p>
<ul><li>first finding<li>second finding &mdash; with an entity &#38; a stray </span></ul>
<img src="fig1.png" alt="figure"><br>
<table><tr><td>dose<td>1.5 mg</table>
<div class="footer">Contact &copy; 2016 <a href="/imprint">Imprint</a>
</body></html>`

var (
	// hotPage is page-sized net text, ~4 KB of English, as the crawl's
	// language filter and classifier see it.
	hotPage = strings.Repeat(hotDoc+" ", 20)
	// hotURLs are three pages of the gate's 8-host web: a hub portal, a
	// relevant full text and an irrelevant short page.
	hotURLs = "http://nih.gov/p0.html http://nih.gov/p5.html http://cancer.org/p9.html"
	// The adversarial shapes the scaling test adds for the HTML kernels:
	// k raw-text elements (mixed case, so that folding them costs), and
	// k nested elements nobody closes.
	hotStyles = strings.Repeat("<style>P { margin: 0 }</style>\n", 200)
	hotDivs   = strings.Repeat("<div>unclosed ", 200)
)

var (
	gateOnce    sync.Once
	gateMatcher *dict.Matcher
	gateBlocks  []htmlkit.Block
	gateIndex   *dedup.Index
	gateTagger  *postag.Tagger
	gateLog     evlog.Logger
	gateWeb     *synthweb.Web
	gateGen     *textgen.Generator
	gateNB      *classify.NaiveBayes
	gateCRF     *crf.Model
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
		// A tagger that knows half of hotSentence and has to guess the
		// rest from suffix and shape.
		gateTagger = postag.Train([][]postag.TaggedToken{
			{{Word: "Alpha", Tag: "NNP"}, {Word: "binds", Tag: "VBZ"}, {Word: "the", Tag: "DT"}, {Word: "receptor", Tag: "NN"}, {Word: ".", Tag: "."}},
			{{Word: "It", Tag: "PRP"}, {Word: "rose", Tag: "VBD"}, {Word: "in", Tag: "IN"}, {Word: "hours", Tag: "NNS"}, {Word: ".", Tag: "."}},
		}, postag.DefaultConfig())
		// A sink with every retention class full: past its 256 pinned
		// Warns, past its 256 tail and 64 reservoir Debugs.
		gateLog = evlog.NewSink(evlog.DefaultConfig(1)).Logger("crawler.fetch")
		for i := 0; i < 256+256+64+8; i++ {
			gateLog.Warn("fetch.error", int64(i), trace.Int("attempt", int64(i)))
			gateLog.Debug("fetch.start", int64(i), trace.Int("attempt", int64(i)))
		}
		// The default web at 8 hosts, no faults: Fetch renders the page on
		// every call.
		webCfg := synthweb.DefaultConfig()
		webCfg.NumHosts = 8
		lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 300, Drugs: 100, Diseases: 100}, 0.75)
		gateGen = textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
		gateWeb = synthweb.New(webCfg, gateGen)
		gateNB = classify.Train([]classify.Example{
			{Text: hotDoc, Class: classify.Relevant},
			{Text: "Cheap flights and hotel deals for your summer travel. Shop the sale today, theirs were not.", Class: classify.Irrelevant},
		}, 0.5)
		// Genes, drugs and diseases, trained as one model.
		B, I, O := crf.B, crf.I, crf.O
		gateCRF = crf.Train(textgen.EntityTypes, []crf.Sentence{
			{Words: []string{"Alpha", "binds", "the", "beta", "receptor", "."},
				Labels: [][]crf.Label{{B, O, O, B, I, O}, {O, O, O, O, O, O}, {O, O, O, O, O, O}}},
			{Words: []string{"GAD-67", "expression", "rose", "while", "gamma", "fell", "."},
				Labels: [][]crf.Label{{B, O, O, O, O, O, O}, {O, O, O, O, B, O, O}, {O, O, B, O, O, O, O}}},
		}, crf.DefaultConfig())
	})
}

// gateRow is one gated workload. bind does everything that is not the
// kernel (tokenizing the kernel's input, say) and returns the call that
// is measured, which must be deterministic: same work, same allocations,
// every run. allocs is the ceiling per call on in; bytes is what the call
// allocated when the row was last set, and the gate allows 5% over it
// (the runtime's own background allocations land in the same counter).
type gateRow struct {
	name          string
	allocs, bytes uint64
	in            string
	bind          func(in string) func()
}

// layerRows has one row per kernel the benchmark traces, in
// bench/spans.go order; TestAllocGateCoversBenchmark keeps the two lists
// equal.
var layerRows = []gateRow{
	// The simulator renders a page per call: the Page, its URL and the Doc
	// with its text, spans, mentions and relations but no tokens (they are
	// generated in pooled scratch), the link slice and the one string all
	// its links share, and the HTML in one byte slice sized up front. The
	// page's and the fault draws' RNGs are values on the stack.
	{"synthweb.fetch", 31, 30729, hotURLs, func(in string) func() {
		urls := strings.Fields(in)
		return func() {
			for _, u := range urls {
				if _, err := gateWeb.Fetch(u); err != nil {
					panic(err)
				}
			}
		}
	}},
	// The probes fold ASCII case on the sniff window in place: nothing
	// allocates.
	{"mimetype.detect", 0, 0, hotHTML, func(in string) func() {
		body := []byte(in)
		return func() { _ = mimetype.Detect("/p1.html", body) }
	}},
	// Extract is htmlkit.Blocks' one streaming pass — the block slice and
	// the one string all block texts share — and the net text, sized up
	// front.
	{"boiler.extract", 3, 1408, hotHTML, func(in string) func() {
		return func() { _ = boilerClassifier.Extract(in) }
	}},
	// The token slice and the attribute array all tokens share, both sized
	// by a counting pass; lower-case names are spans of the page.
	{"htmlkit.tokenize", 2, 6432, hotHTML, func(in string) func() {
		return func() { _ = htmlkit.Tokenize(in) }
	}},
	// The output stream, sized before the stack runs; the stack is pooled.
	{"htmlkit.repair", 1, 6528, hotHTML, func(in string) func() {
		tokens := htmlkit.Tokenize(in)
		return func() { _, _ = htmlkit.Repair(tokens) }
	}},
	// The block slice and the one string all block texts share; the text
	// buffer is pooled.
	{"htmlkit.blocks", 2, 1088, hotHTML, func(in string) func() {
		tokens, _ := htmlkit.Repair(htmlkit.Tokenize(in))
		return func() { _ = htmlkit.ExtractBlocks(tokens) }
	}},
	// The crawl's language filter on a page-sized text: counting, selection
	// and scoring all run in pooled scratch.
	{"langid.identify", 0, 0, hotPage, func(in string) func() {
		return func() { _, _ = gateLangID.Identify(in) }
	}},
	// Tokens are scanned in place, folded in a stack buffer and looked up
	// in the one word table: nothing allocates.
	{"classify.prob_relevant", 0, 0, hotPage, func(in string) func() {
		return func() { _ = gateNB.ProbRelevant(in) }
	}},
	// One span slice per document.
	{"nlp.split_sentences", 1, 64, hotDoc, func(in string) func() {
		return func() { _ = nlp.SplitSentences(in) }
	}},
	// One token slice per call.
	{"nlp.tokenize", 1, 1792, hotDoc, func(in string) func() {
		return func() { _ = nlp.Tokenize(in, 0) }
	}},
	// The tag slice; the lattice is pooled scratch.
	{"postag.tag", 1, 176, hotSentence, func(in string) func() {
		var words []string
		for _, tok := range nlp.Tokenize(in, 0) {
			words = append(words, tok.Text)
		}
		return func() { _, _ = gateTagger.Tag(words) }
	}},
	// The annotation slice, sized by a counting pass.
	{"ling.analyze", 1, 576, hotDoc, func(in string) func() {
		sents := nlp.SplitSentences(in)
		return func() { _ = ling.Analyze("d1", in, sents) }
	}},
	// One table step per byte, the byte classes folding ASCII case; the
	// discarded result buffer stays on the stack.
	{"dict.find", 0, 0, hotDoc, func(in string) func() {
		return func() { _ = gateMatcher.Find(in) }
	}},
	// The six sentence and token slices, then crf_decode's six for one
	// class; features are row numbers into one weight table, and a token's
	// case fold lives on the stack.
	{"crf.extract", 12, 3048, hotDoc, func(in string) func() {
		gene := gateCRF.Tagger(textgen.Gene)
		return func() { _ = gene.Extract(in) }
	}},
}

// extraRows gate entries that sit on no traced layer boundary.
var extraRows = []gateRow{
	// The caller-owned-buffer entry is allocation-free: the automaton is
	// flat tables, and only non-ASCII text takes a folded copy.
	{"dict_find_append", 0, 0, hotDoc, func(in string) func() {
		return func() { dictBuf = gateMatcher.FindAppend(dictBuf[:0], in) }
	}},
	// Sentence spans + per-sentence token slices for the 4-sentence doc.
	{"nlp_sentence_tokens", 6, 1920, hotDoc, func(in string) func() {
		return func() { _, _ = nlp.SentenceTokens(in) }
	}},
	// The web flow's one pass over a page: the block slice and the string
	// all block texts share, the link slice and the string all anchors
	// share, and the title; the attribute buffer is pooled.
	{"htmlkit_parse", 5, 1328, hotHTML, func(in string) func() {
		return func() { _ = htmlkit.Parse(in) }
	}},
	// A token-carrying gold document per seed: its RNG, the Doc, its text,
	// spans, mentions and relations, and the two copies out of the pooled
	// scratch it is generated in — one token slice and one sentence slice,
	// however many sentences it has.
	{"textgen_doc", 27, 43363, "1 2 3", func(in string) func() {
		var seeds []uint64
		for _, f := range strings.Fields(in) {
			n, _ := strconv.ParseUint(f, 10, 64)
			seeds = append(seeds, n)
		}
		return func() {
			for _, seed := range seeds {
				_ = gateGen.Doc(rng.New(seed), textgen.Medline, "gate")
			}
		}
	}},
	// Tracing off: the recorder keeps no reference to a call site's
	// attrs, so they stay on the caller's stack and a nil recorder and a
	// zero Context cost nothing.
	{"trace_disabled", 0, 0, "", func(string) func() {
		var rec *trace.Recorder
		return func() {
			tc := rec.Start("crawler.url", "http://h0/p1", 0, trace.String("host", "h0"))
			at := tc.StartSpan("crawler.fetch.attempt", 1, trace.Int("attempt", 0))
			at.Event("fetch.ok", 2, trace.String("url", "http://h0/p1"))
			at.End(2)
			tc.Finish(3)
		}
	}},
	// Logging off: a logger from a nil sink returns before it copies the
	// attrs, so they stay on the caller's stack and the call costs nothing.
	{"evlog_sampled_out", 0, 0, "", func(string) func() {
		var sink *evlog.Sink
		lg := sink.Logger("crawler.frontier")
		return func() {
			lg.Debug("frontier.trap", 9000, trace.String("host", "h0"))
		}
	}},
	// Tracing on, as the crawler's inject runs it for each URL: Start makes
	// the one object holding the trace, its root span and the inject
	// event with both attrs; the rest is the trace map's amortized growth.
	{"trace_start_inject", 3, 1436, "http://h0/p1 http://h1/p2 http://h2/p3", func(in string) func() {
		urls := strings.Fields(in)
		rec := trace.NewRecorder(trace.DefaultConfig(1))
		return func() {
			for _, u := range urls {
				tc := rec.Start("crawler.url", u, 0, trace.String("host", u[7:9]))
				tc.Event("frontier.inject", 0, trace.Int("depth", 1))
			}
		}
	}},
	// A snapshot of 64 one-span traces copies them in blocks: the snapshot,
	// its trace pointers, and one slice each of traces, spans and span
	// pointers, however many traces there are.
	{"trace_snapshot", 5, 14416, strings.Repeat("t ", 64), func(in string) func() {
		rec := trace.NewRecorder(trace.DefaultConfig(1))
		for i, f := range strings.Fields(in) {
			rec.Start("crawler.url", f+strconv.Itoa(i), 0, trace.String("host", "h0"))
		}
		return func() { _ = rec.Snapshot() }
	}},
	// One label slice per page.
	{"boiler_classify", 1, 192, "", func(string) func() {
		return func() { _ = boilerClassifier.Classify(gateBlocks) }
	}},
	// Span scratch + shingle slice; no fold or join copies on ASCII text.
	{"dedup_sketch", 2, 576, hotDoc, func(in string) func() {
		return func() { _ = dedup.Sketch(in, 3) }
	}},
	// Probing a warm index against a known duplicate touches only the
	// epoch-marked scratch: zero allocations.
	{"dedup_probe_dup", 0, 0, "", func(string) func() {
		return func() { _, _ = gateIndex.AddOrFind("probe", probeSig) }
	}},
	// All three classes' matches from pre-tokenized sentences: the atoms,
	// emissions and lattice sized to the longest sentence, the document's
	// labels, the matches of all classes in one slice and its per-class
	// view.
	{"crf_decode", 6, 2368, hotDoc, func(in string) func() {
		_, sents := nlp.SentenceTokens(in)
		return func() { _ = gateCRF.Decode(in, sents) }
	}},
	// A kept record into a full sink copies its attrs once, renders its
	// line once and builds its totals key, however much the sink already
	// holds: no class re-renders what it kept to decide what goes.
	{"evlog_warn_full_sink", 12, 280, "", func(string) func() {
		return func() {
			gateLog.Warn("fetch.error", 9000, trace.String("cause", "host down"), trace.Int("attempt", 3))
		}
	}},
	{"evlog_debug_full_sink", 12, 252, "", func(string) func() {
		return func() {
			gateLog.Debug("fetch.start", 9000, trace.String("url", "http://h0/p1"), trace.Int("depth", 3))
		}
	}},
}

var (
	dictBuf          = make([]dict.Match, 0, 16)
	boilerClassifier = boiler.Default()
	probeSig         dedup.Signature
	gateLangID       = langid.New()
)

// perCall runs fn once to warm pools and buffers, then runs more times,
// and returns the mean mallocs and bytes allocated per run: counts of
// what the code asked for, which no machine's speed changes.
func perCall(runs int, fn func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkHotPath measures every gated workload (ns/op beside the
// allocs/op and B/op TestAllocGate enforces).
func BenchmarkHotPath(b *testing.B) {
	gateSetup()
	for _, r := range append(layerRows, extraRows...) {
		b.Run(r.name, func(b *testing.B) {
			fn := r.bind(r.in)
			fn() // warm buffers so steady-state is measured
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
}

// TestAllocGate is the regression gate: every row must stay within its
// two ceilings.
func TestAllocGate(t *testing.T) {
	gateSetup()
	for _, r := range append(layerRows, extraRows...) {
		t.Run(r.name, func(t *testing.T) {
			allocs, bytes := perCall(100, r.bind(r.in))
			t.Logf("%d allocs, %d bytes per call", allocs, bytes)
			if allocs > r.allocs || bytes > r.bytes+r.bytes/20 {
				t.Errorf("%s: %d allocs, %d bytes per call break the ceilings %d, %d (+5%%)", r.name, allocs, bytes, r.allocs, r.bytes)
			}
		})
	}
}

// TestAllocGateScaling is the gate's second axis: twice the input may
// cost twice the allocations and bytes, plus a constant — never the
// square. It runs every row, extra rows too. The HTML kernels also run the
// two shapes that have bitten them: many raw-text elements and deep
// unclosed nesting (at the paper's 95% invalid markup, that is ordinary
// traffic).
func TestAllocGateScaling(t *testing.T) {
	gateSetup()
	for _, r := range append(layerRows, extraRows...) {
		t.Run(r.name, func(t *testing.T) {
			inputs := []string{r.in}
			if strings.HasPrefix(r.name, "htmlkit") {
				inputs = append(inputs, hotStyles, hotDivs)
			}
			for _, in := range inputs {
				a1, b1 := perCall(10, r.bind(in))
				a2, b2 := perCall(10, r.bind(in+" "+in))
				t.Logf("%d bytes then twice that: allocs %d -> %d, bytes %d -> %d", len(in), a1, a2, b1, b2)
				if a2 > 2*a1+8 || float64(b2) > 2.2*float64(b1)+4096 {
					t.Errorf("%s on %d bytes then twice that: allocs %d -> %d, bytes %d -> %d: more than linear",
						r.name, len(in), a1, a2, b1, b2)
				}
			}
		})
	}
}

// TestAllocGateCoversBenchmark reads the benchmark's declaration and
// fails unless the kernels it traces and layerRows are the same list.
func TestAllocGateCoversBenchmark(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, r := range layerRows {
		rows[r.name]++
	}
	kernels := 0
	for _, m := range decl.PerLayer {
		kernel, ok := strings.CutSuffix(m.Name, ".allocs_per_call")
		if !ok {
			continue
		}
		kernels++
		if rows[kernel] != 1 {
			t.Errorf("benchmark kernel %s has %d gate rows, want 1", kernel, rows[kernel])
		}
	}
	if kernels == 0 || kernels != len(layerRows) {
		t.Errorf("BENCHMARK.json traces %d kernels, layerRows has %d rows", kernels, len(layerRows))
	}
}
