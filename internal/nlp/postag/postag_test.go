package postag

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

// trainingData converts generator gold docs into tagged sentences.
func trainingData(t testing.TB, n int, kind textgen.CorpusKind) [][]TaggedToken {
	t.Helper()
	return corpusSentences(n, kind, 7)
}

// corpusSentences is the tagged sentences of n generated documents of kind.
func corpusSentences(n int, kind textgen.CorpusKind, seed uint64) [][]TaggedToken {
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 300, Drugs: 100, Diseases: 100}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	r := rng.New(seed)
	var out [][]TaggedToken
	for i := 0; i < n; i++ {
		d := gen.Doc(r, kind, fmt.Sprint("d", i))
		for _, s := range d.Sentences {
			var sent []TaggedToken
			for _, tok := range s.Tokens {
				sent = append(sent, TaggedToken{Word: tok.Text, Tag: tok.Tag})
			}
			out = append(out, sent)
		}
	}
	return out
}

func TestTrainAndTagAccuracy(t *testing.T) {
	data := trainingData(t, 300, textgen.Medline)
	split := len(data) * 9 / 10
	tagger := Train(data[:split], DefaultConfig())
	var gold, pred [][]string
	for _, s := range data[split:] {
		words := make([]string, len(s))
		gs := make([]string, len(s))
		for i, tok := range s {
			words[i] = tok.Word
			gs[i] = tok.Tag
		}
		tags, err := tagger.Tag(words)
		if err != nil {
			t.Fatalf("Tag error: %v", err)
		}
		gold = append(gold, gs)
		pred = append(pred, tags)
	}
	acc := accuracy(gold, pred)
	if acc < 0.90 {
		t.Fatalf("held-out accuracy = %.3f, want >= 0.90", acc)
	}
}

func TestOrder3BeatsOrder2OrClose(t *testing.T) {
	data := trainingData(t, 250, textgen.Medline)
	split := len(data) * 9 / 10
	eval := func(order int) float64 {
		cfg := DefaultConfig()
		cfg.Order = order
		tagger := Train(data[:split], cfg)
		var gold, pred [][]string
		for _, s := range data[split:] {
			words := make([]string, len(s))
			gs := make([]string, len(s))
			for i, tok := range s {
				words[i] = tok.Word
				gs[i] = tok.Tag
			}
			tags, err := tagger.Tag(words)
			if err != nil {
				continue
			}
			gold = append(gold, gs)
			pred = append(pred, tags)
		}
		return accuracy(gold, pred)
	}
	a2, a3 := eval(2), eval(3)
	if a3 < a2-0.02 {
		t.Errorf("order-3 accuracy %.3f much worse than order-2 %.3f", a3, a2)
	}
}

func TestUnknownWordsViaSuffixAndShape(t *testing.T) {
	data := trainingData(t, 200, textgen.Medline)
	tagger := Train(data, DefaultConfig())
	// A never-seen gene-like symbol should still be tagged NNP thanks to
	// the shape model (acronym-with-digits).
	tags, err := tagger.Tag([]string{"The", "XQZW9", "gene", "regulates", "the", "pathway", "."})
	if err != nil {
		t.Fatal(err)
	}
	if tags[1] != "NNP" {
		t.Errorf("unknown gene symbol tagged %q, want NNP (tags: %v)", tags[1], tags)
	}
}

func TestTooLongSentenceCrashes(t *testing.T) {
	data := trainingData(t, 50, textgen.Medline)
	cfg := DefaultConfig()
	cfg.MaxTokens = 100
	tagger := Train(data, cfg)
	long := make([]string, 150)
	for i := range long {
		long[i] = "word"
	}
	_, err := tagger.Tag(long)
	if !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
	// Disabled limit must not crash.
	cfg.MaxTokens = 0
	tagger2 := Train(data, cfg)
	if _, err := tagger2.Tag(long); err != nil {
		t.Fatalf("unlimited tagger errored: %v", err)
	}
}

func TestEmptyInput(t *testing.T) {
	tagger := Train(trainingData(t, 20, textgen.Medline), DefaultConfig())
	tags, err := tagger.Tag(nil)
	if err != nil || tags != nil {
		t.Errorf("empty input: %v, %v", tags, err)
	}
}

func TestTagsInventory(t *testing.T) {
	tagger := Train(trainingData(t, 50, textgen.Medline), DefaultConfig())
	if len(tagger.tags) < 10 {
		t.Errorf("only %d tags learned", len(tagger.tags))
	}
}

func TestDeterministicDecoding(t *testing.T) {
	data := trainingData(t, 100, textgen.Medline)
	tagger := Train(data, DefaultConfig())
	words := []string{"The", "patients", "were", "not", "treated", "with", "the", "drug", "."}
	a, _ := tagger.Tag(words)
	b, _ := tagger.Tag(words)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("decoding not deterministic")
		}
	}
}

func TestShapeClassifier(t *testing.T) {
	cases := map[string]string{
		"123": "num", "BRCA1": "alnum", "TLA": "acro", "LONGCAPS": "upper",
		"Word": "cap", "x-ray": "hyph", "word": "lower", "...": "other",
	}
	for w, want := range cases {
		if got := shape(w); got != want {
			t.Errorf("shape(%q) = %q, want %q", w, got, want)
		}
	}
}

// accuracy scores predicted against gold tags, ignoring length mismatches.
func accuracy(gold, pred [][]string) float64 {
	var hit, total int
	for i := range gold {
		if i >= len(pred) {
			break
		}
		for j := range gold[i] {
			if j >= len(pred[i]) {
				break
			}
			total++
			if gold[i][j] == pred[i][j] {
				hit++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

func TestAccuracyHelper(t *testing.T) {
	gold := [][]string{{"A", "B"}, {"C"}}
	pred := [][]string{{"A", "X"}, {"C"}}
	if got := accuracy(gold, pred); got != 2.0/3.0 {
		t.Errorf("accuracy = %v", got)
	}
	if accuracy(nil, nil) != 0 {
		t.Error("empty accuracy != 0")
	}
}

func TestLinearRuntimeShape(t *testing.T) {
	// Fig 3a: runtime "is, in principle, linear in the length of the text".
	// Wall time is not asserted; what is: the lattice a decode keeps per
	// token does not grow with the sentence, a sentence far past any limit
	// decodes, to exactly the dense reference's tags, and a sentence one
	// token over the limit is refused before any decoding is set up.
	data := trainingData(t, 100, textgen.Medline)
	cfg := DefaultConfig()
	cfg.MaxTokens = 0
	tagger := Train(data, cfg)

	// Fig 3a's probes: the first n tokens of concatenated Medline sentences.
	var clean []string
	for _, sent := range corpusSentences(20, textgen.Medline, 11) {
		clean = append(clean, wordsOf(sent)...)
	}
	short, long := liveStates(t, tagger, clean[:50]), liveStates(t, tagger, clean[:400])
	t.Logf("live states per position: %.1f over 50 tokens, %.1f over 400", short, long)
	if long > 2*short {
		t.Errorf("400 clean tokens keep %.1f states per position, 50 keep %.1f: pruning loses its grip with length", long, short)
	}
	mk := func(n int) []string {
		out := make([]string, n)
		words := []string{"the", "patient", "was", "treated", "with", "aspirin", "."}
		for i := range out {
			out[i] = words[i%len(words)]
		}
		return out
	}
	got, err := tagger.Tag(mk(2000))
	if err != nil {
		t.Fatalf("long decode failed: %v", err)
	}
	want, err := tagger.refViterbi3(mk(2000))
	if err != nil {
		t.Fatalf("reference decode failed: %v", err)
	}
	if diff := firstDiff(got, want); diff >= 0 {
		t.Fatalf("2000-token probe: tag %d is %s, the reference has %s", diff, got[diff], want[diff])
	}

	limited := Train(data, DefaultConfig())
	over := mk(DefaultConfig().MaxTokens + 1)
	if _, err := limited.Tag(over[:len(over)-1]); err != nil {
		t.Fatalf("a sentence at the limit was refused: %v", err)
	}
	if _, err := limited.Tag(over); !errors.Is(err, ErrTooLong) {
		t.Fatalf("one token over the limit: err = %v, want ErrTooLong", err)
	}
	// The refusal costs its error value and nothing of a decode's size: one
	// emission matrix for this sentence would be 67 KB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		_, _ = limited.Tag(over)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / 20; perCall > 1024 {
		t.Errorf("a refusal allocates %d bytes: it must not set up a decode", perCall)
	}
}

func BenchmarkTagOrder3(b *testing.B) {
	tagger := Train(corpusSentences(200, textgen.Medline, 7), DefaultConfig())
	words := []string{"The", "BRCA1", "gene", "significantly", "regulates", "the", "tumor", "response", "in", "patients", "with", "renal", "carcinoma", "."}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tagger.Tag(words)
	}
}

func TestTagOutputLengthProperty(t *testing.T) {
	tagger := Train(trainingData(t, 80, textgen.Medline), DefaultConfig())
	r := rng.New(71)
	words := []string{"the", "BRCA1", "gene", "regulates", "42", "X-ray", "growth", ".", "(", ")"}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		in := make([]string, n)
		for i := range in {
			in[i] = words[r.Intn(len(words))]
		}
		tags, err := tagger.Tag(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(tags) != n {
			t.Fatalf("trial %d: %d tags for %d words", trial, len(tags), n)
		}
		for _, tag := range tags {
			if tag == "" {
				t.Fatalf("trial %d: empty tag", trial)
			}
		}
	}
}

func TestOrder2And3AgreeOnEasySentences(t *testing.T) {
	data := trainingData(t, 150, textgen.Medline)
	cfg2, cfg3 := DefaultConfig(), DefaultConfig()
	cfg2.Order = 2
	t2 := Train(data, cfg2)
	t3 := Train(data, cfg3)
	words := []string{"The", "patients", "were", "treated", "with", "the", "drug", "."}
	a, _ := t2.Tag(words)
	b, _ := t3.Tag(words)
	agree := 0
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
	}
	if agree < len(a)-1 {
		t.Errorf("orders disagree heavily: %v vs %v", a, b)
	}
}

// The reference: the map-walking emission model and the dense order-3
// Viterbi over all (T+1)·T tag-pair states that Tag used before it pruned.
// Everything below holds Tag to their output, tag for tag.

// refEmitRow fills dst with log P(word | tag) from the trained maps.
func (t *Tagger) refEmitRow(w string, dst []float64) {
	suf := suffix(w, t.cfg.SuffixLen)
	shp := t.logShape[shape(w)]
	for ti := range dst {
		if lp, ok := t.logEmit[ti][w]; ok {
			dst[ti] = lp
			continue
		}
		lp := t.logUnknown[ti]
		if slp, ok := t.logSuffix[ti][suf]; ok {
			lp = slp
		}
		if shp != nil {
			lp += 0.5 * shp[ti]
		}
		dst[ti] = lp
	}
}

// refViterbi3 decodes with trigram transitions over dense score arrays:
// state (a, b) with a ∈ [0..T] (T = start symbol) and b ∈ [0..T-1] is
// encoded as a*T + b.
func (t *Tagger) refViterbi3(words []string) ([]string, error) {
	T := len(t.tags)
	n := len(words)
	S := T + 1 // tag alphabet incl. start
	nStates := S * T

	neg := math.Inf(-1)
	cur := make([]float64, nStates)
	next := make([]float64, nStates)
	for i := range cur {
		cur[i] = neg
	}
	em := make([]float64, T)
	t.refEmitRow(words[0], em)
	for j := 0; j < T; j++ {
		cur[T*T+j] = t.logTrans3[T*S+T][j] + em[j] // (start, j)
	}
	backptr := make([][]int32, n)
	for i := 1; i < n; i++ {
		bp := make([]int32, nStates)
		for k := range next {
			next[k] = neg
			bp[k] = -1
		}
		t.refEmitRow(words[i], em)
		for st, score := range cur {
			if score == neg {
				continue
			}
			a := st / T // previous-previous tag (or start)
			b := st % T // previous tag
			row := t.logTrans3[a*S+b]
			base := b * T
			for j := 0; j < T; j++ {
				v := score + row[j] + em[j]
				if v > next[base+j] {
					next[base+j] = v
					bp[base+j] = int32(st)
				}
			}
		}
		backptr[i] = bp
		cur, next = next, cur
	}
	// Best final state.
	bestScore := neg
	bestSt := -1
	for st, score := range cur {
		if score > bestScore {
			bestScore = score
			bestSt = st
		}
	}
	if bestSt < 0 {
		return nil, errors.New("postag: no path")
	}
	out := make([]string, n)
	st := int32(bestSt)
	for i := n - 1; i >= 0; i-- {
		out[i] = t.tags[int(st)%T]
		if i > 0 {
			st = backptr[i][st]
		}
	}
	return out, nil
}

func wordsOf(sent []TaggedToken) []string {
	words := make([]string, len(sent))
	for i, tok := range sent {
		words[i] = tok.Word
	}
	return words
}

// firstDiff is the first index at which a and b differ, -1 when equal.
func firstDiff(a, b []string) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return len(a)
	}
	return -1
}

// liveStates is the mean number of tag-pair states per position that the
// pruned decoder keeps on words.
func liveStates(t *testing.T, tagger *Tagger, words []string) float64 {
	t.Helper()
	var lat lattice
	if _, err := tagger.viterbi3(&lat, words); err != nil {
		t.Fatal(err)
	}
	return float64(len(lat.state)) / float64(len(words))
}

// checkAgainstReference holds Tag to refViterbi3 on one sentence, and the
// emission rows Tag reads to the ones the reference computes, bit for bit.
func checkAgainstReference(t *testing.T, tagger *Tagger, words []string) {
	t.Helper()
	T := len(tagger.tags)
	got, want := make([]float64, T), make([]float64, T)
	for _, w := range words {
		tagger.emitRow(w, got)
		tagger.refEmitRow(w, want)
		for ti := range got {
			if math.Float64bits(got[ti]) != math.Float64bits(want[ti]) {
				t.Fatalf("emission of %q under %s: %v, the reference has %v", w, tagger.tags[ti], got[ti], want[ti])
			}
		}
	}
	gotTags, gotErr := tagger.Tag(words)
	wantTags, wantErr := tagger.refViterbi3(words)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: err = %v, the reference has %v", words, gotErr, wantErr)
	}
	if diff := firstDiff(gotTags, wantTags); diff >= 0 {
		t.Fatalf("%q: tags diverge at %d:\n got %v\nwant %v", words, diff, gotTags, wantTags)
	}
}

// unlimited is DefaultConfig without the length limit, so the degenerate
// sentences of web text are decoded and compared too.
func unlimited() Config {
	cfg := DefaultConfig()
	cfg.MaxTokens = 0
	return cfg
}

// TestTagMatchesDenseReference runs generated sentences of all four corpus
// kinds through both decoders, and logs how much of the lattice survives
// pruning on each kind — the figure EXPERIMENTS.md records.
func TestTagMatchesDenseReference(t *testing.T) {
	// Documents per kind, for a few hundred sentences of each: a full text
	// is fifty abstracts long.
	docs := map[textgen.CorpusKind]int{textgen.Relevant: 12, textgen.Irrelevant: 24, textgen.Medline: 60, textgen.PMC: 2}
	tagger := Train(corpusSentences(200, textgen.Medline, 7), unlimited())
	T := len(tagger.tags)
	for _, kind := range textgen.CorpusKinds {
		sents := corpusSentences(docs[kind], kind, 11)
		var lat lattice
		var tokens, live, unknown int
		for _, sent := range sents {
			words := wordsOf(sent)
			checkAgainstReference(t, tagger, words)
			if _, err := tagger.viterbi3(&lat, words); err != nil {
				t.Fatal(err)
			}
			tokens += len(words)
			live += len(lat.state)
			for _, w := range words {
				if tagger.wordRow[w] == nil {
					unknown++
				}
			}
		}
		mean := float64(live) / float64(tokens)
		t.Logf("%-10s %5d sentences %6d tokens: %5.1f%% unknown words, mean %.1f of %d states live per position",
			kind, len(sents), tokens, 100*float64(unknown)/float64(tokens), mean, (T+1)*T)
		// Equal tags do not show that anything was pruned; this does.
		ceiling := map[textgen.CorpusKind]float64{textgen.Relevant: 15, textgen.Irrelevant: 25, textgen.Medline: 3, textgen.PMC: 3}[kind]
		if mean > ceiling {
			t.Errorf("%s: %.1f states live per position, want at most %.0f", kind, mean, ceiling)
		}
	}
}

// TestMergeBound holds the merge table to what viterbi3 relies on: a state
// gains nothing on itself, and neither one step nor two steps after s add
// more than merge[r][s] beyond the same steps after r.
func TestMergeBound(t *testing.T) {
	for name, tagger := range map[string]*Tagger{
		"medline":      Train(corpusSentences(60, textgen.Medline, 7), DefaultConfig()),
		"one sentence": Train(corpusSentences(1, textgen.Medline, 7)[:1], DefaultConfig()),
	} {
		T := len(tagger.tags)
		S, N := T+1, (T+1)*T
		trans := func(st, j int) float64 { return tagger.logTrans3[st/T*S+st%T][j] }
		for s := 0; s < N; s++ {
			if m := tagger.merge[s*N+s]; m != 0 {
				t.Fatalf("%s: merge[%d][%d] = %v, want 0", name, s, s, m)
			}
		}
		r := rng.New(3)
		for trial := 0; trial < 20000; trial++ {
			rs, s, j1, j2 := r.Intn(N), r.Intn(N), r.Intn(T), r.Intn(T)
			// Paths through s and rs rejoin at (j1, j2) after two steps; a
			// sentence may also end after one, or none.
			one := trans(s, j1) - trans(rs, j1)
			two := (trans(s, j1) + trans(s%T*T+j1, j2)) - (trans(rs, j1) + trans(rs%T*T+j1, j2))
			// Rounding slack only: a millionth of what Tag allows for it.
			if m := tagger.merge[rs*N+s]; max(0, one, two) > m+1e-12 {
				t.Fatalf("%s: after %d, steps (%d, %d) gain %v then %v on %d; merge says at most %v", name, s, j1, j2, one, two, rs, m)
			}
		}
	}
}

// junkWords is n words no training set contains, of every shape class.
func junkWords(r *rng.RNG, n int) []string {
	const alphabet = "qxzjvkwQXZJVKW0123456789-_#"
	words := make([]string, n)
	for i := range words {
		b := make([]byte, 2+r.Intn(9))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		words[i] = string(b)
	}
	return words
}

func repeated(w string, n int) []string {
	return strings.Fields(strings.Repeat(w+" ", n))
}

// TestTagAdversarial is the inputs a pruned decoder gets wrong first:
// nothing to prune on (one and two tokens), nothing to tell states apart
// (one word 400 times, junk, punctuation), bytes the suffix fold must treat
// as strings.ToLower does, and taggers trained on so little that smoothing
// makes whole families of paths tie — where only the order of the strict
// comparisons decides.
func TestTagAdversarial(t *testing.T) {
	medline := corpusSentences(60, textgen.Medline, 7)
	taggers := map[string]*Tagger{
		"medline":       Train(medline, unlimited()),
		"one sentence":  Train(medline[:1], unlimited()),
		"two sentences": Train(medline[:2], unlimited()),
		"long suffixes": Train(medline[:40], Config{Order: 3, SuffixLen: 20}),
	}
	r := rng.New(5)
	inputs := [][]string{
		{"the"}, {"."}, {"zzzz"}, {""},
		{"the", "patient"}, {"qq", "qq"}, {".", "."},
		repeated("the", 400), repeated("BRCA1", 400), repeated("zqx-17", 400), repeated(".", 400),
		strings.Fields(". , ; : ( ) [ ] % | - -- ... ! ? ( ( ) )"),
		junkWords(r, 1), junkWords(r, 2), junkWords(r, 37), junkWords(r, 300),
		// Suffixes with upper case, a split rune, invalid bytes, runes whose
		// lower case is longer (Ⱥ) or shorter (the Kelvin sign) than they are.
		{"DNA", "mRNA", "naïve", "\xff\xfe", "a\xc3", "ȺȺȺ", "\u212a\u212a", "İ", "ſſſ", "ΑΒΓ"},
	}
	for _, sent := range medline[:20] {
		inputs = append(inputs, wordsOf(sent))
	}
	for name, tagger := range taggers {
		t.Run(name, func(t *testing.T) {
			for _, words := range inputs {
				checkAgainstReference(t, tagger, words)
			}
		})
	}

	// Trained on nothing, there is no tag to give: both decoders say so.
	checkAgainstReference(t, Train(nil, DefaultConfig()), []string{"the", "patient"})
	if _, err := Train(nil, DefaultConfig()).Tag([]string{"the"}); err == nil {
		t.Error("a tagger without tags tagged a word")
	}
}

// TestTagConcurrent shares one Tagger among goroutines, as the executor
// does at DoP > 1; under -race it also proves Tag writes nothing shared.
func TestTagConcurrent(t *testing.T) {
	tagger := Train(corpusSentences(60, textgen.Medline, 7), unlimited())
	var sents [][]string
	for _, kind := range textgen.CorpusKinds {
		for _, sent := range corpusSentences(2, kind, 13) {
			sents = append(sents, wordsOf(sent))
		}
	}
	want := make([][]string, len(sents))
	for i, words := range sents {
		want[i], _ = tagger.Tag(words)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sents {
				i := (k + g*7) % len(sents)
				got, err := tagger.Tag(sents[i])
				if err != nil || firstDiff(got, want[i]) >= 0 {
					t.Errorf("goroutine %d, sentence %d: %v (err %v), alone it was %v", g, i, got, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var fuzzTaggers struct {
	once  sync.Once
	vocab []string
	all   []*Tagger
}

// FuzzTag is differential: Tag against refViterbi3 on sentences the fuzzer
// composes. A field "#<n><rest>" is the n-th training word with rest
// appended (a known word, or a mutation of one); any other field is itself.
// Both a well-trained tagger and a two-sentence one, whose ties are dense.
func FuzzTag(f *testing.F) {
	f.Add("#0 #1 #2 #3 .")
	f.Add("#12 #12 #12 #12 #12 #12")
	f.Add("The #40s were not #7ing ( #3 ) , nor #9 .")
	f.Add("zq xv 17 -- | | ΑΒΓ \xff")
	f.Add("#5")
	// Where the bigram bound alone goes slack: clean text 150 to 400 tokens
	// long (the training words in order) and keyword soup.
	var clean, soup []string
	for i := 0; i < 400; i++ {
		clean = append(clean, fmt.Sprint("#", i))
		soup = append(soup, []string{"home", "BRCA1", "login", "|", fmt.Sprint(i), "TLA", "sitemap", "#9"}[i%8])
	}
	f.Add(strings.Join(clean[:150], " "))
	f.Add(strings.Join(clean, " "))
	f.Add(strings.Join(soup[:200], " "))
	f.Add(strings.Join(soup, " "))
	f.Fuzz(func(t *testing.T, input string) {
		fz := &fuzzTaggers
		fz.once.Do(func() {
			data := corpusSentences(40, textgen.Medline, 7)
			for _, sent := range data[:60] {
				fz.vocab = append(fz.vocab, wordsOf(sent)...)
			}
			fz.all = []*Tagger{Train(data, DefaultConfig()), Train(data[:2], DefaultConfig())}
		})
		words := strings.Fields(input)
		for i, w := range words {
			if rest, ok := strings.CutPrefix(w, "#"); ok {
				n := 0
				for rest != "" && rest[0] >= '0' && rest[0] <= '9' {
					n = (n*10 + int(rest[0]-'0')) % len(fz.vocab)
					rest = rest[1:]
				}
				words[i] = fz.vocab[n] + rest
			}
		}
		if len(words) == 0 || len(words) > DefaultConfig().MaxTokens {
			return
		}
		for _, tagger := range fz.all {
			checkAgainstReference(t, tagger, words)
		}
	})
}

// BenchmarkTagCorpus times Tag over generated sentences of each corpus
// kind, plus junk no training set has seen: the spread between the rows is
// the paper's "large runtime fluctuations" (§4.2). BenchmarkTagCorpusDense
// is the reference decoder on the same sentences.
func BenchmarkTagCorpus(b *testing.B) {
	benchCorpus(b, (*Tagger).Tag)
}

func BenchmarkTagCorpusDense(b *testing.B) {
	benchCorpus(b, (*Tagger).refViterbi3)
}

func benchCorpus(b *testing.B, decode func(*Tagger, []string) ([]string, error)) {
	tagger := Train(corpusSentences(200, textgen.Medline, 7), unlimited())
	workloads := map[string][][]string{"junk": {junkWords(rng.New(5), 200)}}
	for _, kind := range textgen.CorpusKinds {
		name := strings.ToLower(kind.String())
		for _, sent := range corpusSentences(10, kind, 11) {
			workloads[name] = append(workloads[name], wordsOf(sent))
		}
	}
	for _, name := range []string{"medline", "pmc", "relevant", "irrelevant", "junk"} {
		sents := workloads[name]
		tokens := 0
		for _, words := range sents {
			tokens += len(words)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, words := range sents {
					if _, err := decode(tagger, words); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens), "ns/token")
		})
	}
}
