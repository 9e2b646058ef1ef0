package crf

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/nlp"
	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

// fixture builds a shared lexicon/generator, training data for all three
// classes, the model trained on it and its gene tagger.
type fixture struct {
	lex   *textgen.Lexicon
	gen   *textgen.Generator
	docs  []*textgen.Doc
	data  []Sentence
	model *Model
	gene  *Tagger
}

var cached *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 400, Drugs: 120, Diseases: 120}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	r := rng.New(11)
	var docs []*textgen.Doc
	for i := 0; i < 400; i++ {
		docs = append(docs, gen.Doc(r, textgen.Medline, fmt.Sprint("m", i)))
	}
	data := TrainingSentences(docs, textgen.EntityTypes...)
	model := Train(textgen.EntityTypes, data, DefaultConfig())
	cached = &fixture{lex: lex, gen: gen, docs: docs, data: data, model: model, gene: model.Tagger(textgen.Gene)}
	return cached
}

// evalF1 measures exact-span F1 of a tagger on fresh documents of a corpus.
func evalF1(t testing.TB, fx *fixture, tagger *Tagger, kind textgen.CorpusKind, n int) (p, r float64) {
	t.Helper()
	rg := rng.New(99)
	var tp, fp, fn int
	for i := 0; i < n; i++ {
		d := fx.gen.Doc(rg, kind, fmt.Sprint("e", i))
		gold := map[[2]int]bool{}
		for _, m := range d.Mentions {
			if m.Type == tagger.Entity {
				gold[[2]int{m.Start, m.End}] = true
			}
		}
		got := tagger.Extract(d.Text)
		for _, m := range got {
			if gold[[2]int{m.Start, m.End}] {
				tp++
				delete(gold, [2]int{m.Start, m.End})
			} else {
				fp++
			}
		}
		fn += len(gold)
	}
	if tp+fp > 0 {
		p = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r = float64(tp) / float64(tp+fn)
	}
	return p, r
}

func TestGeneTaggerQualityOnMedline(t *testing.T) {
	fx := getFixture(t)
	p, r := evalF1(t, fx, fx.gene, textgen.Medline, 60)
	// "On such data, ML-based NER is clearly superior" (§5): the tagger
	// must work well in-domain.
	if p < 0.70 {
		t.Errorf("Medline precision = %.3f, want >= 0.70", p)
	}
	if r < 0.70 {
		t.Errorf("Medline recall = %.3f, want >= 0.70", r)
	}
}

func TestMLBeatsDictionaryRecallOnOOV(t *testing.T) {
	// §3.2: "ML-based extraction methods often show much improved recall"
	// because dictionaries are incomplete. The CRF must find entities that
	// are NOT in the curated dictionary.
	fx := getFixture(t)
	rg := rng.New(123)
	foundOOV := 0
	totalOOV := 0
	for i := 0; i < 80; i++ {
		d := fx.gen.Doc(rg, textgen.Medline, fmt.Sprint("o", i))
		got := fx.gene.Extract(d.Text)
		spans := map[[2]int]bool{}
		for _, m := range got {
			spans[[2]int{m.Start, m.End}] = true
		}
		for _, m := range d.Mentions {
			if m.Type != textgen.Gene || m.Entry == nil || m.Entry.InDictionary {
				continue
			}
			totalOOV++
			if spans[[2]int{m.Start, m.End}] {
				foundOOV++
			}
		}
	}
	if totalOOV == 0 {
		t.Skip("no OOV gene mentions in sample")
	}
	recall := float64(foundOOV) / float64(totalOOV)
	if recall < 0.5 {
		t.Errorf("OOV recall = %.3f (%d/%d), want >= 0.5", recall, foundOOV, totalOOV)
	}
}

func TestDomainShiftTLAFalsePositives(t *testing.T) {
	// §4.3.2: on web text the Medline-trained gene tagger tags non-entity
	// TLAs as genes. Count false-positive TLA matches on relevant-web docs.
	fx := getFixture(t)
	rg := rng.New(77)
	tlaFPs := 0
	for i := 0; i < 60; i++ {
		d := fx.gen.Doc(rg, textgen.Relevant, fmt.Sprint("w", i))
		gold := map[[2]int]bool{}
		for _, m := range d.Mentions {
			gold[[2]int{m.Start, m.End}] = true
		}
		for _, m := range fx.gene.Extract(d.Text) {
			if isTLA(m.Surface) && !gold[[2]int{m.Start, m.End}] {
				tlaFPs++
			}
		}
	}
	if tlaFPs == 0 {
		t.Error("no TLA false positives on web text — domain-shift pathology not reproduced")
	}
}

// isTLA reports whether a surface form is a bare three-letter acronym, the
// filter the paper applies to the ML gene annotations ("we filtered all
// TLAs from the list of ML-tagged gene names", §4.3.2). The tests use it
// to count the tagger's TLA false positives on web text.
func isTLA(s string) bool {
	if len(s) != 3 {
		return false
	}
	for i := 0; i < 3; i++ {
		if s[i] < 'A' || s[i] > 'Z' {
			return false
		}
	}
	return true
}

// tag labels one tokenized sentence.
func (t *Tagger) tag(words []string) []Label {
	n := len(words)
	if n == 0 {
		return nil
	}
	a := make([]atoms, n)
	for i, w := range words {
		a[i] = t.m.atomize(w, false)
	}
	out := make([]Label, n)
	t.m.label(a, t.k, t.k+1, make([][numLabels]float64, n), make([]step, n), out, n)
	return out
}

// row returns the tagger's weight vector of feature row r.
func (t *Tagger) row(r int) [numLabels]float64 { return t.m.weights[r*len(t.m.Entities)+t.k] }

// numRows is the number of feature rows of the model's layout.
func (m *Model) numRows() int { return len(m.dead) }

// numFeatures counts the weight rows training left non-zero, the model
// size proxy.
func numFeatures(t *Tagger) int {
	n := 0
	for r := range t.m.numRows() {
		if t.row(r) != ([numLabels]float64{}) {
			n++
		}
	}
	return n
}

// trainOne trains a model of one class alone.
func trainOne(docs []*textgen.Doc, e textgen.EntityType, cfg Config) *Tagger {
	return Train([]textgen.EntityType{e}, TrainingSentences(docs, e), cfg).Tagger(e)
}

func TestIsTLA(t *testing.T) {
	cases := map[string]bool{
		"FAQ": true, "TLA": true, "BRC": true,
		"FA": false, "FAQS": false, "FaQ": false, "F1Q": false, "": false,
	}
	for s, want := range cases {
		if isTLA(s) != want {
			t.Errorf("isTLA(%q) != %v", s, want)
		}
	}
}

func TestExtractTokensBIO(t *testing.T) {
	toks := []nlp.TokenSpan{
		{Span: nlp.Span{Start: 0, End: 3}, Text: "The"},
		{Span: nlp.Span{Start: 4, End: 9}, Text: "renal"},
		{Span: nlp.Span{Start: 10, End: 19}, Text: "carcinoma"},
		{Span: nlp.Span{Start: 20, End: 25}, Text: "cases"},
	}
	ms := appendMatches(nil, "The renal carcinoma cases", toks, []Label{O, B, I, O})
	if len(ms) != 1 || ms[0].Start != 4 || ms[0].End != 19 {
		t.Fatalf("matches = %+v", ms)
	}
	// I without preceding B starts a new mention (robustness).
	ms = appendMatches(nil, "The renal carcinoma cases", toks, []Label{I, O, B, B})
	if len(ms) != 3 {
		t.Fatalf("matches = %+v", ms)
	}
	// Trailing mention is flushed.
	ms = appendMatches(nil, "The renal carcinoma cases", toks, []Label{O, O, O, B})
	if len(ms) != 1 || ms[0].Start != 20 {
		t.Fatalf("matches = %+v", ms)
	}
}

func TestTagStructuralConstraint(t *testing.T) {
	fx := getFixture(t)
	rg := rng.New(5)
	for i := 0; i < 20; i++ {
		d := fx.gen.Doc(rg, textgen.Medline, fmt.Sprint("c", i))
		for _, s := range d.Sentences {
			words := make([]string, len(s.Tokens))
			for j, tok := range s.Tokens {
				words[j] = tok.Text
			}
			labels := fx.gene.tag(words)
			for j, l := range labels {
				if l == I && (j == 0 || labels[j-1] == O) {
					t.Fatalf("I after O/start at %d in %v", j, labels)
				}
			}
		}
	}
}

func TestEmptyInput(t *testing.T) {
	fx := getFixture(t)
	if got := fx.gene.tag(nil); got != nil {
		t.Errorf("Tag(nil) = %v", got)
	}
	if got := fx.gene.Extract(""); len(got) != 0 {
		t.Errorf("Extract(\"\") = %v", got)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 100, Drugs: 50, Diseases: 50}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	mk := func() *Tagger {
		r := rng.New(42)
		var docs []*textgen.Doc
		for i := 0; i < 60; i++ {
			docs = append(docs, gen.Doc(r, textgen.Medline, fmt.Sprint("d", i)))
		}
		return trainOne(docs, textgen.Gene, DefaultConfig())
	}
	a, b := mk(), mk()
	if numFeatures(a) != numFeatures(b) {
		t.Fatal("feature counts differ across identical trainings")
	}
	words := []string{"The", "BRCA1", "gene", "regulates", "growth", "."}
	la, lb := a.tag(words), b.tag(words)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("decoding differs across identical trainings")
		}
	}
}

func TestShapeFeatureAblationReducesTLAFPs(t *testing.T) {
	// Disabling shape features must reduce TLA false positives on web text
	// (the §4.3.2 mechanism runs through shape generalization).
	fx := getFixture(t)
	rg := rng.New(13)
	var docs []*textgen.Doc
	for i := 0; i < 250; i++ {
		docs = append(docs, fx.gen.Doc(rg, textgen.Medline, fmt.Sprint("m", i)))
	}
	cfg := DefaultConfig()
	cfg.UseShapeFeatures = false
	noShape := trainOne(docs, textgen.Gene, cfg)

	countTLAFP := func(tg *Tagger) int {
		rg := rng.New(14)
		n := 0
		for i := 0; i < 40; i++ {
			d := fx.gen.Doc(rg, textgen.Relevant, fmt.Sprint("w", i))
			gold := map[[2]int]bool{}
			for _, m := range d.Mentions {
				gold[[2]int{m.Start, m.End}] = true
			}
			for _, m := range tg.Extract(d.Text) {
				if isTLA(m.Surface) && !gold[[2]int{m.Start, m.End}] {
					n++
				}
			}
		}
		return n
	}
	withShape := countTLAFP(fx.gene)
	without := countTLAFP(noShape)
	if without > withShape {
		t.Errorf("shape ablation increased TLA FPs: %d -> %d", withShape, without)
	}
}

func TestNumFeatures(t *testing.T) {
	fx := getFixture(t)
	// The perceptron stores only features touched by an update, so the
	// count is far below the template cross-product but must be non-trivial.
	if numFeatures(fx.gene) < 200 {
		t.Errorf("only %d features learned", numFeatures(fx.gene))
	}
}

func BenchmarkExtract(b *testing.B) {
	fx := getFixture(b)
	d := fx.gen.Doc(rng.New(55), textgen.Medline, "bench")
	b.SetBytes(int64(len(d.Text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fx.gene.Extract(d.Text)
	}
}

// --- The string-keyed model, kept as the oracle ---
//
// refTagger is the model the interned one must reproduce bit for bit:
// every feature a string concatenated afresh at every position, weights in
// a map of strings. Its features, viterbi and Train are the predecessor's,
// verbatim but for the receiver.

type refTagger struct {
	cfg     Config
	weights map[string][numLabels]float64
	trans   [numLabels][numLabels]float64
}

// featureAppender collects the active features of one position.
type featureAppender struct {
	feats []string
}

func (f *featureAppender) add(s string) { f.feats = append(f.feats, s) }

// refShape returns the coarse word shape.
func refShape(w string) string {
	hasDigit, hasUpper, hasLower, hasHyphen := false, false, false, false
	for i := 0; i < len(w); i++ {
		c := w[i]
		switch {
		case c >= '0' && c <= '9':
			hasDigit = true
		case c >= 'A' && c <= 'Z':
			hasUpper = true
		case c >= 'a' && c <= 'z':
			hasLower = true
		case c == '-':
			hasHyphen = true
		}
	}
	switch {
	case hasDigit && !hasUpper && !hasLower:
		return "num"
	case hasDigit && hasUpper:
		return "alnumU"
	case hasDigit:
		return "alnum"
	case hasUpper && !hasLower && len(w) == 3:
		return "tla"
	case hasUpper && !hasLower && len(w) <= 5:
		return "acro"
	case hasUpper && !hasLower:
		return "upper"
	case hasUpper:
		return "cap"
	case hasHyphen:
		return "hyph"
	default:
		return "lower"
	}
}

// features computes the active features at position i.
func (t *refTagger) features(words []string, i int, f *featureAppender) {
	f.feats = f.feats[:0]
	w := words[i]
	lw := strings.ToLower(w)
	f.add("w=" + lw)
	if n := len(lw); n > 3 {
		f.add("suf3=" + lw[n-3:])
		f.add("pre3=" + lw[:3])
	}
	if t.cfg.UseShapeFeatures {
		f.add("sh=" + refShape(w))
	}
	if i > 0 {
		p := strings.ToLower(words[i-1])
		f.add("p=" + p)
		f.add("pw=" + p + "|" + lw)
		if t.cfg.UseShapeFeatures {
			f.add("psh=" + refShape(words[i-1]))
		}
	} else {
		f.add("p=<s>")
	}
	if i+1 < len(words) {
		n := strings.ToLower(words[i+1])
		f.add("n=" + n)
		if t.cfg.UseShapeFeatures {
			f.add("nsh=" + refShape(words[i+1]))
		}
	} else {
		f.add("n=</s>")
	}
	if i > 1 {
		f.add("pp=" + strings.ToLower(words[i-2]))
	}
	if i+2 < len(words) {
		f.add("nn=" + strings.ToLower(words[i+2]))
	}
}

// score returns the per-label emission scores for the active features.
func (t *refTagger) score(feats []string) [numLabels]float64 {
	var s [numLabels]float64
	for _, ft := range feats {
		if wv, ok := t.weights[ft]; ok {
			for l := Label(0); l < numLabels; l++ {
				s[l] += wv[l]
			}
		}
	}
	return s
}

// viterbi decodes the best label sequence.
func (t *refTagger) viterbi(words []string) []Label {
	n := len(words)
	if n == 0 {
		return nil
	}
	const L = int(numLabels)
	delta := make([][numLabels]float64, n)
	back := make([][numLabels]int8, n)
	var f featureAppender
	t.features(words, 0, &f)
	em := t.score(f.feats)
	for l := 0; l < L; l++ {
		delta[0][l] = em[l]
	}
	// I cannot start a sentence.
	delta[0][I] -= 1000
	for i := 1; i < n; i++ {
		t.features(words, i, &f)
		em = t.score(f.feats)
		for l := 0; l < L; l++ {
			best := delta[i-1][0] + t.trans[0][l]
			var arg int8
			for p := 1; p < L; p++ {
				if v := delta[i-1][p] + t.trans[p][l]; v > best {
					best = v
					arg = int8(p)
				}
			}
			// Structural constraint: I must follow B or I.
			if Label(l) == I && arg == int8(O) {
				// Recompute best among B, I only.
				best = delta[i-1][B] + t.trans[B][l]
				arg = int8(B)
				if v := delta[i-1][I] + t.trans[I][l]; v > best {
					best = v
					arg = int8(I)
				}
			}
			delta[i][l] = best + em[Label(l)]
			back[i][l] = arg
		}
	}
	bestL := 0
	for l := 1; l < L; l++ {
		if delta[n-1][l] > delta[n-1][bestL] {
			bestL = l
		}
	}
	out := make([]Label, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = Label(bestL)
		if i > 0 {
			bestL = int(back[i][bestL])
		}
	}
	return out
}

// refTrain fits the string-keyed model of the k-th class labelled in data
// with the averaged structured perceptron.
func refTrain(data []Sentence, k int, cfg Config) *refTagger {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 5
	}
	t := &refTagger{cfg: cfg, weights: map[string][numLabels]float64{}}

	// Averaging accumulators.
	acc := map[string][numLabels]float64{}
	var accTrans [numLabels][numLabels]float64
	steps := 1.0

	var f featureAppender
	update := func(words []string, i int, l Label, delta float64) {
		t.features(words, i, &f)
		for _, ft := range f.feats {
			wv := t.weights[ft]
			wv[l] += delta
			t.weights[ft] = wv
			av := acc[ft]
			av[l] += delta * steps
			acc[ft] = av
		}
	}

	for ep := 0; ep < cfg.Epochs; ep++ {
		for _, s := range data {
			if len(s.Words) == 0 {
				continue
			}
			pred := t.viterbi(s.Words)
			for i := range s.Words {
				if pred[i] == s.Labels[k][i] {
					continue
				}
				update(s.Words, i, s.Labels[k][i], +1)
				update(s.Words, i, pred[i], -1)
			}
			for i := 1; i < len(s.Words); i++ {
				gp, gc := s.Labels[k][i-1], s.Labels[k][i]
				pp, pc := pred[i-1], pred[i]
				if gp == pp && gc == pc {
					continue
				}
				t.trans[gp][gc]++
				t.trans[pp][pc]--
				accTrans[gp][gc] += steps
				accTrans[pp][pc] -= steps
			}
			steps++
		}
	}

	// Average: w_avg = w - acc/steps.
	for ft, wv := range t.weights {
		av := acc[ft]
		for l := Label(0); l < numLabels; l++ {
			wv[l] -= av[l] / steps
		}
		t.weights[ft] = wv
	}
	for p := Label(0); p < numLabels; p++ {
		for c := Label(0); c < numLabels; c++ {
			t.trans[p][c] -= accTrans[p][c] / steps
		}
	}
	return t
}

// refExtractTokens converts a labelled token sequence into matches.
func refExtractTokens(tokens []nlp.TokenSpan, labels []Label) []Match {
	var out []Match
	var cur *Match
	for i, tok := range tokens {
		if i >= len(labels) {
			break
		}
		switch labels[i] {
		case B:
			if cur != nil {
				out = append(out, *cur)
			}
			cur = &Match{Start: tok.Start, End: tok.End}
		case I:
			if cur == nil {
				cur = &Match{Start: tok.Start, End: tok.End}
			} else {
				cur.End = tok.End
			}
		default:
			if cur != nil {
				out = append(out, *cur)
				cur = nil
			}
		}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out
}

// extract runs sentence splitting, tokenization, decoding, and span
// assembly over raw text.
func (t *refTagger) extract(text string) []Match {
	_, sentToks := nlp.SentenceTokens(text)
	var out []Match
	for _, toks := range sentToks {
		if len(toks) == 0 {
			continue
		}
		words := make([]string, len(toks))
		for i, tk := range toks {
			words[i] = tk.Text
		}
		labels := t.viterbi(words)
		ms := refExtractTokens(toks, labels)
		for i := range ms {
			ms[i].Surface = text[ms[i].Start:ms[i].End]
		}
		out = append(out, ms...)
	}
	return out
}

// TestInternedMatchesReference trains the interned model of all three
// classes and the string-keyed model of each class on the same data, and
// holds every class to its reference: feature count, every weight and
// transition to the bit, with each string paired to its row position by
// position, and every row no reference feature owns +0; and the same
// labels and matches on all four corpus kinds.
func TestInternedMatchesReference(t *testing.T) {
	fx := getFixture(t)
	// Non-ASCII tokens fold as strings.ToLower folds them: two invalid
	// bytes both become U+FFFD, the Kelvin sign becomes an ASCII k.
	data := append(fx.data[:len(fx.data):len(fx.data)], Sentence{
		Words:  []string{"\xc3", "\xc4", "\u212aINASE", "kinase", "Ärzte", "ärzte", "."},
		Labels: [][]Label{{O, O, B, B, O, O, O}, {B, O, O, O, O, O, O}, {O, O, O, O, B, I, O}},
	})
	noShape := DefaultConfig()
	noShape.UseShapeFeatures = false
	for _, cfg := range []Config{DefaultConfig(), noShape} {
		t.Run(fmt.Sprintf("shape=%v", cfg.UseShapeFeatures), func(t *testing.T) {
			m := Train(textgen.EntityTypes, data, cfg)
			// Features depend on the configuration alone, not the class.
			feats := &refTagger{cfg: cfg}
			keyOf, strOf := map[string]int32{}, map[int32]string{}
			var f featureAppender
			for _, s := range data {
				a := make([]atoms, len(s.Words))
				for i, w := range s.Words {
					a[i] = m.atomize(w, false)
				}
				for i := range s.Words {
					feats.features(s.Words, i, &f)
					ks := m.keys(nil, a, i)
					if len(ks) != len(f.feats) {
						t.Fatalf("%q position %d: %d keys for %d features %q", s.Words, i, len(ks), len(f.feats), f.feats)
					}
					for j, ft := range f.feats {
						if k, ok := keyOf[ft]; (ok && k != ks[j]) || (strOf[ks[j]] != "" && strOf[ks[j]] != ft) {
							t.Fatalf("feature %q and row %d are not paired one to one", ft, ks[j])
						}
						keyOf[ft], strOf[ks[j]] = ks[j], ft
					}
				}
			}
			for k, e := range m.Entities {
				got, want := m.Tagger(e), refTrain(data, k, cfg)
				if numFeatures(got) != len(want.weights) {
					t.Fatalf("%v: %d non-zero feature rows, reference %d features", e, numFeatures(got), len(want.weights))
				}
				for p := range m.trans[k] {
					for c := range m.trans[k][p] {
						if math.Float64bits(m.trans[k][p][c]) != math.Float64bits(want.trans[p][c]) {
							t.Errorf("%v: trans[%d][%d] = %v, reference %v", e, p, c, m.trans[k][p][c], want.trans[p][c])
						}
					}
				}
				owned := make([]bool, m.numRows())
				for ft, wv := range want.weights {
					r, ok := keyOf[ft]
					if !ok {
						t.Fatalf("%v: reference feature %q has no row", e, ft)
					}
					owned[r] = true
					for l, gv := range got.row(int(r)) {
						if math.Float64bits(gv) != math.Float64bits(wv[l]) {
							t.Fatalf("%v: weights[%q] = %v, reference %v", e, ft, got.row(int(r)), wv)
						}
					}
				}
				for r := range owned {
					for _, g := range got.row(r) {
						if !owned[r] && math.Float64bits(g) != 0 {
							t.Fatalf("%v: row %d belongs to no reference feature and is %v, not +0", e, r, got.row(r))
						}
					}
				}
				for _, kind := range []textgen.CorpusKind{textgen.Medline, textgen.PMC, textgen.Relevant, textgen.Irrelevant} {
					rg := rng.New(31)
					for i := 0; i < 15; i++ {
						d := fx.gen.Doc(rg, kind, fmt.Sprint("r", i))
						for _, s := range d.Sentences {
							words := make([]string, len(s.Tokens))
							for j, tok := range s.Tokens {
								words[j] = tok.Text
							}
							gl, wl := got.tag(words), want.viterbi(words)
							if !slices.Equal(gl, wl) {
								t.Fatalf("%v, %v: Tag(%q) = %v, reference %v", e, kind, words, gl, wl)
							}
						}
						if gm, wm := got.Extract(d.Text), want.extract(d.Text); !slices.Equal(gm, wm) {
							t.Fatalf("%v, %v doc %d: Extract = %v, reference %v", e, kind, i, gm, wm)
						}
					}
				}
			}
		})
	}
}

// TestSharedTrainingMatchesSeparate trains the three classes as one model
// and each class alone, on the same documents: every class's layout —
// vocabulary, affixes, pairs, row bases, configuration — is the one its
// own training builds, and its weights and transitions are the same bits.
func TestSharedTrainingMatchesSeparate(t *testing.T) {
	fx := getFixture(t)
	for k, e := range fx.model.Entities {
		oneTagger := trainOne(fx.docs, e, DefaultConfig())
		one := oneTagger.m
		for _, f := range []struct {
			name      string
			got, want any
		}{{"vocab", fx.model.vocab, one.vocab}, {"affix", fx.model.affix, one.affix},
			{"pairs", fx.model.pairs, one.pairs}, {"base", fx.model.base, one.base}, {"cfg", fx.model.cfg, one.cfg}} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("%v: the shared %s differs from the one its own training builds", e, f.name)
			}
		}
		if fx.model.numRows() != one.numRows() {
			t.Fatalf("%v: %d rows shared, %d alone", e, fx.model.numRows(), one.numRows())
		}
		shared := fx.model.Tagger(e)
		for r := range one.numRows() {
			got, want := shared.row(r), oneTagger.row(r)
			for l := range got {
				if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
					t.Fatalf("%v: row %d = %v shared, %v alone", e, r, got, want)
				}
			}
		}
		for p := range one.trans[0] {
			for c := range one.trans[0][p] {
				if math.Float64bits(fx.model.trans[k][p][c]) != math.Float64bits(one.trans[0][p][c]) {
					t.Fatalf("%v: trans[%d][%d] = %v shared, %v alone", e, p, c, fx.model.trans[k][p][c], one.trans[0][p][c])
				}
			}
		}
	}
}

// FuzzExtract holds Extract to the string-keyed reference on arbitrary
// bytes: non-ASCII and invalid UTF-8 take the strings.ToLower fallback,
// '|' and "<s>" probe the key packing, a 10k-token run-on the scratch.
func FuzzExtract(f *testing.F) {
	fx := getFixture(f)
	ref := refTrain(fx.data, fx.gene.k, DefaultConfig())
	f.Add("")
	f.Add("a|b | <s> </s> n=</s> p=<s>")
	f.Add("Die Ärzte fanden BRCA1 in Zürich. ǅemal Kelvin ΣΑΣ binds GAD-67 \xff\xfeX.")
	f.Add(strings.Repeat("BRCA1 binds the p53 receptor and ", 2000))
	f.Add(fx.gen.Doc(rng.New(3), textgen.Medline, "f").Text)
	f.Add(fx.gen.Doc(rng.New(4), textgen.Irrelevant, "f").Text)
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := fx.gene.Extract(text), ref.extract(text); !slices.Equal(got, want) {
			t.Fatalf("Extract(%q) = %v, reference %v", text, got, want)
		}
	})
}

// TestExtractConcurrent shares one trained Tagger across goroutines, as
// the executor does at DoP > 1, on texts no call has seen yet, and then
// compares every result with a serial Extract; under -race it proves
// decoding never writes to the model.
func TestExtractConcurrent(t *testing.T) {
	fx := getFixture(t)
	rg := rng.New(21)
	kinds := []textgen.CorpusKind{textgen.Medline, textgen.PMC, textgen.Relevant, textgen.Irrelevant}
	var texts []string
	for i := 0; i < 12; i++ {
		texts = append(texts, fx.gen.Doc(rg, kinds[i%4], fmt.Sprint("c", i)).Text)
	}
	const workers = 4
	var got [workers][][]Match
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([][]Match, len(texts))
			for j := range texts {
				i := (j + 3*g) % len(texts)
				got[g][i] = fx.gene.Extract(texts[i])
			}
		}(g)
	}
	wg.Wait()
	for i, text := range texts {
		serial := fx.gene.Extract(text)
		for g := range got {
			if !slices.Equal(got[g][i], serial) {
				t.Errorf("goroutine %d, text %d: %v, serially %v", g, i, got[g][i], serial)
			}
		}
	}
}

// FuzzDecodeMatchesExtract holds the one decode of every class over a
// text's sentences, tokenized by nlp.SentenceTokens, to each class's own
// Extract of the text.
func FuzzDecodeMatchesExtract(f *testing.F) {
	fx := getFixture(f)
	f.Add("")
	f.Add("a|b | <s> </s> n=</s> p=<s>")
	f.Add("Die Ärzte fanden BRCA1 in Zürich. ǅemal Kelvin ΣΑΣ binds GAD-67 \xff\xfeX.")
	f.Add(strings.Repeat("BRCA1 binds the p53 receptor and ", 2000))
	f.Add(fx.gen.Doc(rng.New(3), textgen.Medline, "f").Text)
	f.Add(fx.gen.Doc(rng.New(4), textgen.Irrelevant, "f").Text)
	f.Fuzz(func(t *testing.T, text string) {
		_, sents := nlp.SentenceTokens(text)
		got := fx.model.Decode(text, sents)
		for k, e := range fx.model.Entities {
			if want := fx.model.Tagger(e).Extract(text); !slices.Equal(got[k], want) {
				t.Fatalf("%v: Decode(%q) = %v, Extract %v", e, text, got[k], want)
			}
		}
	})
}

// TestDecodeAtomizesOncePerToken counts atomizations by the one allocation
// each costs on a token longer than atomize's 64-byte case-fold buffer: a
// document's decode for all three classes costs one allocation more per
// such token than the same document with short words in its place, whose
// atoms, and so labels and matches, are the same.
func TestDecodeAtomizesOncePerToken(t *testing.T) {
	fx := getFixture(t)
	long, short := strings.Repeat("z", 100), "zzzzz"
	if fx.model.atomize(long, false) != fx.model.atomize(short, false) {
		t.Fatal("the long and the short word have different atoms")
	}
	if n := testing.AllocsPerRun(10, func() { fx.model.atomize(long, false) }); n != 1 {
		t.Fatalf("atomizing a %d-byte token costs %v allocations, want 1", len(long), n)
	}
	allocs := func(w string) float64 {
		text := strings.Repeat("The "+w+" binds "+w+" . ", 10)
		_, sents := nlp.SentenceTokens(text)
		return testing.AllocsPerRun(10, func() { _ = fx.model.Decode(text, sents) })
	}
	if got := allocs(long) - allocs(short); got != 20 {
		t.Errorf("decoding 20 long tokens for %d classes costs %v allocations more than short ones, want 20: one atomization per token",
			len(fx.model.Entities), got)
	}
}
