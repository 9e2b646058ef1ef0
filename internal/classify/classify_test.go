package classify

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

// tokenize collects what wordScanner yields: the bag-of-words features,
// lower-cased alphanumeric runs with pure numbers and single characters
// dropped. It is the harness the scanner's tests and FuzzTokenize drive.
func tokenize(text string) []string {
	var out []string
	var buf [64]byte
	for sc := (wordScanner{text: text}); ; {
		w, ok := sc.next(buf[:0])
		if !ok {
			return out
		}
		out = append(out, string(w))
	}
}

func TestTokenize(t *testing.T) {
	got := tokenize("The BRCA1 gene, treated-with 42 mg/kg doses!")
	want := []string{"the", "brca1", "gene", "treated", "with", "mg", "kg", "doses"}
	if len(got) != len(want) {
		t.Fatalf("tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeDropsNumbersAndSingles(t *testing.T) {
	got := tokenize("a 1 22 333 bb")
	if len(got) != 1 || got[0] != "bb" {
		t.Fatalf("tokenize = %v", got)
	}
}

func TestUntrainedReturnsHalf(t *testing.T) {
	nb := New()
	if p := nb.ProbRelevant("anything"); p != 0.5 {
		t.Errorf("untrained prob = %v", p)
	}
}

func TestLearnAndClassifyToy(t *testing.T) {
	nb := New()
	nb.Learn("gene protein mutation tumor patient", Relevant)
	nb.Learn("gene expression pathway disease clinical", Relevant)
	nb.Learn("cheap shoes free shipping sale discount", Irrelevant)
	nb.Learn("football season team game score", Irrelevant)
	if nb.Classify("the gene mutation in the patient") != Relevant {
		t.Error("biomedical text classified irrelevant")
	}
	if nb.Classify("buy cheap shoes on sale") != Irrelevant {
		t.Error("shopping text classified relevant")
	}
}

func TestIncrementalLearning(t *testing.T) {
	nb := New()
	nb.Learn("alpha beta", Relevant)
	nb.Learn("gamma delta", Irrelevant)
	before := nb.ProbRelevant("epsilon zeta")
	// Teach the model that "epsilon zeta" is relevant; probability must rise.
	for i := 0; i < 5; i++ {
		nb.Learn("epsilon zeta", Relevant)
	}
	after := nb.ProbRelevant("epsilon zeta")
	if after <= before {
		t.Errorf("incremental update had no effect: before=%v after=%v", before, after)
	}
}

func TestThresholdTradesPrecisionForRecall(t *testing.T) {
	examples := syntheticExamples(t, 400)
	train, test := examples[:300], examples[300:]
	low := Train(train, 0.3)
	high := Train(train, 0.97)
	qLow := Evaluate(low, test)
	qHigh := Evaluate(high, test)
	if qHigh.Precision() < qLow.Precision() {
		t.Errorf("high threshold precision %.3f < low threshold %.3f",
			qHigh.Precision(), qLow.Precision())
	}
	if qHigh.Recall() > qLow.Recall() {
		t.Errorf("high threshold recall %.3f > low threshold %.3f",
			qHigh.Recall(), qLow.Recall())
	}
}

// syntheticExamples builds a balanced Medline-vs-web training set, exactly
// the construction of §2.
func syntheticExamples(t testing.TB, n int) []Example {
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 300, Drugs: 100, Diseases: 100}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	r := rng.New(3)
	out := make([]Example, 0, n)
	for i := 0; i < n/2; i++ {
		out = append(out, Example{Text: gen.Doc(r, textgen.Medline, fmt.Sprint("m", i)).Text, Class: Relevant})
		out = append(out, Example{Text: gen.Doc(r, textgen.Irrelevant, fmt.Sprint("w", i)).Text, Class: Irrelevant})
	}
	return out
}

func TestCrossValidationQualityOnSyntheticCorpus(t *testing.T) {
	// §4.1: "Our classifier achieved a precision of 98% at a recall of 83%
	// in 10-fold cross validation." We require the same regime: high P & R.
	q := CrossValidate(syntheticExamples(t, 600), 10, 0.5)
	if q.Precision() < 0.9 {
		t.Errorf("CV precision = %.3f, want > 0.9", q.Precision())
	}
	if q.Recall() < 0.8 {
		t.Errorf("CV recall = %.3f, want > 0.8", q.Recall())
	}
}

func TestQualityMetrics(t *testing.T) {
	q := Quality{TP: 8, FP: 2, TN: 9, FN: 1}
	if p := q.Precision(); p != 0.8 {
		t.Errorf("precision = %v", p)
	}
	if r := q.Recall(); r < 0.888 || r > 0.889 {
		t.Errorf("recall = %v", r)
	}
}

func TestQualityDegenerate(t *testing.T) {
	var q Quality
	if q.Precision() != 1 || q.Recall() != 1 {
		t.Error("empty quality should be all-1 (vacuous)")
	}
	q2 := Quality{FN: 5}
	if q2.Recall() != 0 {
		t.Errorf("all-FN recall = %v", q2.Recall())
	}
}

func TestQualityAdd(t *testing.T) {
	a := Quality{TP: 1, FP: 2, TN: 3, FN: 4}
	a.Add(Quality{TP: 10, FP: 20, TN: 30, FN: 40})
	if a.TP != 11 || a.FP != 22 || a.TN != 33 || a.FN != 44 {
		t.Errorf("Add = %+v", a)
	}
}

func TestClassString(t *testing.T) {
	if Relevant.String() != "relevant" || Irrelevant.String() != "irrelevant" {
		t.Error("Class.String broken")
	}
}

func BenchmarkClassify(b *testing.B) {
	examples := syntheticExamples(b, 200)
	nb := Train(examples, 0.5)
	text := examples[0].Text
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nb.Classify(text)
	}
}

// FuzzTokenize: wordScanner, through tokenize, matches refTokenize, never
// panics, every token is two or more bytes of [a-z0-9] and not a number,
// and ASCII case does not matter.
func FuzzTokenize(f *testing.F) {
	f.Add("Alpha binds the beta receptor in approx. 1.5 hours. GAD-67 expression rose.")
	f.Add("The BRCA1 gene, treated-with 42 mg/kg doses!")
	f.Add("a 1 22 x9 9x \xff\xfe naïve ſtraße ΑΒΓ")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		toks := tokenize(s)
		if want := refTokenize(s); !slices.Equal(toks, want) {
			t.Fatalf("tokenize(%q) = %q, reference %q", s, toks, want)
		}
		for _, tok := range toks {
			digits := 0
			for i := 0; i < len(tok); i++ {
				c := tok[i]
				if c >= '0' && c <= '9' {
					digits++
				} else if c < 'a' || c > 'z' {
					t.Fatalf("tokenize(%q): token %q holds byte %q", s, tok, c)
				}
			}
			if len(tok) < 2 || digits == len(tok) {
				t.Fatalf("tokenize(%q): token %q is too short or a number", s, tok)
			}
		}
		for i := 0; i < len(s); i++ {
			if s[i] >= 0x80 {
				return // ToUpper maps some non-ASCII letters into ASCII
			}
		}
		if up := tokenize(strings.ToUpper(s)); !slices.Equal(up, toks) {
			t.Fatalf("tokenize(%q) = %q, upper-cased %q", s, toks, up)
		}
	})
}

// refTokenize, refModel.logJoint and refModel.probRelevantTokens are
// the tokenizer, NaiveBayes.logJoint and NaiveBayes.ProbRelevantTokens as
// they were before scoring moved onto one word table and an in-place
// scanner: a token slice built through a strings.Builder, scored against
// two count maps and a vocabulary set. They are the oracle FuzzProbRelevant holds
// the classifier to, bit for bit.
func refTokenize(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() >= 2 {
			w := cur.String()
			digitsOnly := true
			for i := 0; i < len(w); i++ {
				if w[i] < '0' || w[i] > '9' {
					digitsOnly = false
					break
				}
			}
			if !digitsOnly {
				out = append(out, w)
			}
		}
		cur.Reset()
	}
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			cur.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			cur.WriteRune(r + 32)
		default:
			flush()
		}
	}
	flush()
	return out
}

type refModel struct {
	wordCounts [2]map[string]int
	totalWords [2]int
	docs       [2]int
	vocab      map[string]struct{}
}

func newRefModel() *refModel {
	return &refModel{wordCounts: [2]map[string]int{{}, {}}, vocab: map[string]struct{}{}}
}

func (nb *refModel) learn(text string, class Class) {
	nb.docs[class]++
	for _, w := range refTokenize(text) {
		nb.wordCounts[class][w]++
		nb.totalWords[class]++
		nb.vocab[w] = struct{}{}
	}
}

func (nb *refModel) clone() *refModel {
	out := newRefModel()
	out.totalWords = nb.totalWords
	out.docs = nb.docs
	for c := 0; c < 2; c++ {
		for w, n := range nb.wordCounts[c] {
			out.wordCounts[c][w] = n
		}
	}
	for w := range nb.vocab {
		out.vocab[w] = struct{}{}
	}
	return out
}

func (nb *refModel) logJoint(tokens []string) (lIrr, lRel float64) {
	totalDocs := nb.docs[0] + nb.docs[1]
	v := float64(len(nb.vocab))
	var l [2]float64
	for c := 0; c < 2; c++ {
		l[c] = math.Log(float64(nb.docs[c]+1) / float64(totalDocs+2))
		denom := math.Log(float64(nb.totalWords[c]) + v)
		for _, w := range tokens {
			l[c] += math.Log(float64(nb.wordCounts[c][w])+1) - denom
		}
	}
	return l[0], l[1]
}

func (nb *refModel) probRelevantTokens(tokens []string) float64 {
	if !(nb.docs[0] > 0 && nb.docs[1] > 0) {
		return 0.5
	}
	lIrr, lRel := nb.logJoint(tokens)
	n := float64(len(tokens))
	if n < 1 {
		n = 1
	}
	perToken := (lRel - lIrr) / n
	return 1 / (1 + math.Exp(-8*perToken))
}

// FuzzProbRelevant trains NaiveBayes and refModel on the same texts —
// from scratch or on top of a trained corpus, then a clone that learns
// on while the original learns something else — and requires every
// probability to carry the same bits.
func FuzzProbRelevant(f *testing.F) {
	f.Add("Alpha binds the BETA receptor in approx. 1.5 hours.", "Cheap flights and hotel deals!", "GAD-67 expression rose", "the beta receptor", uint8(1))
	f.Add("naïve ſtraße ΑΒΓ \xff\xfe Über", "KELVIN K Straße", "é è ê", "ſtraße naïve", uint8(0))
	f.Add("THE BRCA1 GENE", "CHEAP SHOES SALE", "The Gene", "tHe bRcA1 gEnE", uint8(3))
	f.Add("12 345 6789", "1.5 2.25 42", "a 1 b 2", "007 x9 9x", uint8(2))
	f.Add("", "", "", "", uint8(0))
	f.Add("", "", "", "", uint8(1))
	examples := syntheticExamples(f, 40)
	base, baseRef := New(), newRefModel()
	for _, ex := range examples {
		base.Learn(ex.Text, ex.Class)
		baseRef.learn(ex.Text, ex.Class)
	}
	f.Fuzz(func(t *testing.T, rel, irr, extra, query string, mode uint8) {
		nb, ref := New(), newRefModel()
		if mode&1 != 0 {
			nb, ref = base.Clone(), baseRef.clone()
		}
		check := func(stage string, nb *NaiveBayes, ref *refModel) {
			t.Helper()
			for _, s := range []string{query, rel, irr, extra, examples[0].Text} {
				got, want := nb.ProbRelevant(s), ref.probRelevantTokens(refTokenize(s))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: ProbRelevant(%q) = %v (%#x), reference %v (%#x)",
						stage, s, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		check("before learning", nb, ref)
		nb.Learn(rel, Relevant)
		ref.learn(rel, Relevant)
		check("after one class", nb, ref)
		nb.Learn(irr, Irrelevant)
		ref.learn(irr, Irrelevant)
		check("after both classes", nb, ref)

		c, rc := nb.Clone(), ref.clone()
		class := Class(mode >> 1 & 1)
		c.Learn(extra, class)
		rc.learn(extra, class)
		nb.Learn(query, 1-class)
		ref.learn(query, 1-class)
		check("clone after learning", c, rc)
		check("original after its clone learned", nb, ref)
	})
}

// The executor's classify_relevance and relevance_filter score from DoP
// goroutines against one model: scoring must not write to it.
func TestProbRelevantConcurrent(t *testing.T) {
	examples := syntheticExamples(t, 200)
	nb := Train(examples[:120], 0.5)
	texts := examples[120:]
	want := make([]float64, len(texts))
	for i, ex := range texts {
		want[i] = nb.ProbRelevant(ex.Text)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range texts {
				i := (k + g*len(texts)/4) % len(texts)
				if got := nb.ProbRelevant(texts[i].Text); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d, text %d: %v, serial %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
