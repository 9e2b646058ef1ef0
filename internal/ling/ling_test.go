package ling

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"webtextie/internal/nlp"
	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

func analyze(text string) []Annotation {
	return Analyze("d", text, nlp.SplitSentences(text))
}

func count(anns []Annotation, k Kind) int {
	n := 0
	for _, a := range anns {
		if a.Kind == k {
			n++
		}
	}
	return n
}

func TestNegationDetection(t *testing.T) {
	anns := analyze("The drug did not work. Neither dose nor schedule mattered.")
	if got := count(anns, KindNegation); got != 3 {
		t.Errorf("negations = %d, want 3 (not, neither, nor)", got)
	}
}

func TestNegationWordBoundary(t *testing.T) {
	anns := analyze("The notation denotes nothing important.")
	if got := count(anns, KindNegation); got != 0 {
		t.Errorf("negations = %d in text without negation words", got)
	}
}

func TestNegationCaseInsensitive(t *testing.T) {
	anns := analyze("Not a single case. NOR that one.")
	if got := count(anns, KindNegation); got != 2 {
		t.Errorf("negations = %d, want 2", got)
	}
}

func TestPronounClasses(t *testing.T) {
	anns := analyze("They saw him. This works, which itself was their idea.")
	classes := map[string]int{}
	for _, a := range anns {
		if a.Kind == KindPronoun {
			classes[a.Value]++
		}
	}
	for _, want := range []string{"subject", "object", "demonstrative", "relative", "reflexive", "possessive"} {
		if classes[want] == 0 {
			t.Errorf("class %q not detected: %v", want, classes)
		}
	}
}

func TestReflexiveNotDoubleCounted(t *testing.T) {
	anns := analyze("The cell divides itself.")
	var values []string
	for _, a := range anns {
		if a.Kind == KindPronoun {
			values = append(values, a.Value)
		}
	}
	if len(values) != 1 || values[0] != "reflexive" {
		t.Errorf("pronouns = %v, want [reflexive] only ('it' inside 'itself' must not match)", values)
	}
}

func TestParentheses(t *testing.T) {
	anns := analyze("The result (p < 0.01) was clear (see Fig. 2).")
	if got := count(anns, KindParen); got != 2 {
		t.Errorf("parens = %d, want 2", got)
	}
	for _, a := range anns {
		if a.Kind == KindParen {
			if a.Value[0] != '(' || a.Value[len(a.Value)-1] != ')' {
				t.Errorf("paren value %q not parenthesized", a.Value)
			}
		}
	}
}

func TestUnbalancedParensIgnored(t *testing.T) {
	anns := analyze("An open ( without close and a close ) alone.")
	// The expression requires a balanced non-nested pair; "( without close
	// and a close )" IS a balanced pair here, so exactly one match.
	if got := count(anns, KindParen); got != 1 {
		t.Errorf("parens = %d", got)
	}
	if got := count(analyze("No parens at all."), KindParen); got != 0 {
		t.Errorf("spurious paren match: %d", got)
	}
}

func TestSentenceIDsAssigned(t *testing.T) {
	text := "First has not one. Second has neither."
	anns := analyze(text)
	negs := []Annotation{}
	for _, a := range anns {
		if a.Kind == KindNegation {
			negs = append(negs, a)
		}
	}
	if len(negs) != 2 {
		t.Fatalf("negations = %d", len(negs))
	}
	if negs[0].Sentence != 0 || negs[1].Sentence != 1 {
		t.Errorf("sentence ids = %d, %d", negs[0].Sentence, negs[1].Sentence)
	}
}

func TestOffsetsMatchText(t *testing.T) {
	text := "They did not respond (sadly)."
	for _, a := range analyze(text) {
		if text[a.Start:a.End] != a.Value && a.Kind != KindPronoun {
			t.Errorf("span %q != value %q", text[a.Start:a.End], a.Value)
		}
	}
}

func TestMeasure(t *testing.T) {
	text := "The drug did not work well. It was not (sadly) effective. Good."
	st := Measure("doc1", text)
	if st.DocID != "doc1" || st.Chars != len(text) {
		t.Errorf("stats header: %+v", st)
	}
	if st.Sentences != 3 {
		t.Errorf("sentences = %d", st.Sentences)
	}
	if st.Negations != 2 {
		t.Errorf("negations = %d", st.Negations)
	}
	if st.Parens != 1 {
		t.Errorf("parens = %d", st.Parens)
	}
	if st.Pronouns[0] != 1 { // "It"
		t.Errorf("subject pronouns = %d", st.Pronouns[0])
	}
	if st.MeanSentenceLen <= 0 {
		t.Error("mean sentence length not computed")
	}
	if got := st.NegPerSentence(); got < 0.6 || got > 0.7 {
		t.Errorf("neg/sentence = %v", got)
	}
}

func TestMeasureEmpty(t *testing.T) {
	st := Measure("e", "")
	if st.Sentences != 0 || st.NegPerSentence() != 0 || st.MeanSentenceLen != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

// BenchmarkAnalyze reports MB/s over generated abstracts, the text the
// analysis flow feeds Analyze.
func BenchmarkAnalyze(b *testing.B) {
	lex := textgen.NewLexicon(rng.New(31), textgen.DefaultLexiconSizes(), 0.75)
	gen := textgen.NewGenerator(32, lex, textgen.DefaultProfiles())
	r := rng.New(33)
	var texts []string
	var sents [][]nlp.Span
	bytes := 0
	for i := 0; i < 50; i++ {
		text := gen.Doc(r, textgen.Medline, fmt.Sprint("m", i)).Text
		texts = append(texts, text)
		sents = append(sents, nlp.SplitSentences(text))
		bytes += len(text)
	}
	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, text := range texts {
			_ = Analyze("d", text, sents[k])
		}
	}
}

// The reference: the paper's eight expressions and the Analyze that ran
// them, kept as the oracle for the scan.

// pronounWords are the six classes, in PronounClassNames order.
var pronounWords = []string{
	"he|she|it|they|we",
	"him|her|them|us",
	"his|its|their|our",
	"this|that|these|those",
	"which|who|whom|whose",
	"itself|themselves|himself|herself",
}

const negationWords = "not|nor|neither"

// patterns is one compiled set of the eight expressions.
type patterns struct {
	negation, paren *regexp.Regexp
	pronouns        []*regexp.Regexp
}

// compile builds the word-bounded expressions with insensitive deciding how
// a word list ignores case.
func compile(insensitive func(words string) string) patterns {
	p := patterns{
		negation: regexp.MustCompile(`\b(` + insensitive(negationWords) + `)\b`),
		paren:    regexp.MustCompile(`\(([^()]*)\)`),
	}
	for _, words := range pronounWords {
		p.pronouns = append(p.pronouns, regexp.MustCompile(`\b(`+insensitive(words)+`)\b`))
	}
	return p
}

var (
	// asciiPatterns is the specification: each letter matches itself in
	// either ASCII case.
	asciiPatterns = compile(func(words string) string {
		var b strings.Builder
		for _, c := range words {
			if c == '|' {
				b.WriteRune(c)
			} else {
				fmt.Fprintf(&b, "[%c%c]", c-'a'+'A', c)
			}
		}
		return b.String()
	})
	// foldPatterns is what ran before: (?i) folds by Unicode simple case
	// folding, under which U+017F LATIN SMALL LETTER LONG S is also an "s".
	foldPatterns = compile(func(words string) string { return "(?i:" + words + ")" })
)

// analyze is Analyze as it was: each expression in turn over the whole
// text, pronoun classes from reflexive to subject with a later class
// yielding to an earlier one's span, a linear search for the sentence.
func (p patterns) analyze(docID, text string, sentences []nlp.Span) []Annotation {
	sentenceAt := func(pos int) int {
		for i, s := range sentences {
			if pos >= s.Start && pos < s.End {
				return i
			}
		}
		return -1
	}
	type claim struct{ start, end int }
	var claimed []claim
	overlapsClaims := func(s, e int) bool {
		for _, c := range claimed {
			if s < c.end && c.start < e {
				return true
			}
		}
		return false
	}
	out := make([]Annotation, 0, 16)
	for _, m := range p.negation.FindAllStringIndex(text, -1) {
		out = append(out, Annotation{
			DocID: docID, Sentence: sentenceAt(m[0]), Start: m[0], End: m[1],
			Kind: KindNegation, Value: text[m[0]:m[1]], Source: "ling",
		})
	}
	for _, class := range []int{5, 4, 3, 2, 1, 0} {
		for _, m := range p.pronouns[class].FindAllStringIndex(text, -1) {
			if overlapsClaims(m[0], m[1]) {
				continue
			}
			claimed = append(claimed, claim{m[0], m[1]})
			out = append(out, Annotation{
				DocID: docID, Sentence: sentenceAt(m[0]), Start: m[0], End: m[1],
				Kind: KindPronoun, Value: PronounClassNames[class],
				Source: "ling",
			})
		}
	}
	for _, m := range p.paren.FindAllStringIndex(text, -1) {
		out = append(out, Annotation{
			DocID: docID, Sentence: sentenceAt(m[0]), Start: m[0], End: m[1],
			Kind: KindParen, Value: text[m[0]:m[1]], Source: "ling",
		})
	}
	return out
}

// checkAgainst holds Analyze to one pattern set on one text, element for
// element, Sentence included.
func checkAgainst(t *testing.T, p patterns, text string) {
	t.Helper()
	sents := nlp.SplitSentences(text)
	got, want := Analyze("d", text, sents), p.analyze("d", text, sents)
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("%q: %d annotations, the expressions find %d; first difference at %d:\n got %+v\nwant %+v",
				text, len(got), len(want), i, got[min(i, len(got)):min(i+1, len(got))], want[min(i, len(want)):min(i+1, len(want))])
		}
	}
	t.Fatalf("%q: got %#v, the expressions give %#v", text, got, want)
}

// hostileTexts are the shapes a word-run scan or a bracket cursor could get
// wrong: nesting and imbalance, word characters that are not letters, words
// cut by non-ASCII bytes, every word of the lists in mixed case.
func hostileTexts() []string {
	return []string{
		"", " ", "(", ")", "()", ")(", ") (", "(()", "())", "((a)b)", "(a(b)c(d)e)", "((((", "))))",
		"( it ) ( not ( they ) ) her)", "a (b. It c) d. (e) f",
		"it_self", "9it", "it9", "_it", "it_", "it-self", "it's", "who’s", "who's", "NOT", "NoT nOr NEITHER",
		"itself themselves himself herself its it he her hers", "hershe sheher", "whomwhose",
		"naïve heïshe ïtï \xffit\xff (\xff) n\xc3ot", "not\nnor\tneither\x00it",
		"uſ herſelf theſe ſhe aſhe uſa", "\u212a it", "IT. It! it? (It) [it] {it} <it>",
		"themselvesx xthemselves themselve themselvess", "no nott nnot",
		strings.ToUpper(negationWords + "|" + strings.Join(pronounWords, "|")),
		strings.Repeat("(it) not ", 200),
		strings.Repeat("(", 300) + strings.Repeat(")", 300),
	}
}

// generatedTexts draws from the generators the flows run on: abstracts,
// full texts, and the net text and raw body of pages of a corrupted,
// half-non-English synthetic web.
func generatedTexts() []string {
	lex := textgen.NewLexicon(rng.New(31), textgen.DefaultLexiconSizes(), 0.75)
	gen := textgen.NewGenerator(32, lex, textgen.DefaultProfiles())
	r := rng.New(33)
	var texts []string
	for i := 0; i < 60; i++ {
		texts = append(texts, gen.Doc(r, textgen.Medline, fmt.Sprint("m", i)).Text)
	}
	for i := 0; i < 2; i++ {
		texts = append(texts, gen.Doc(r, textgen.PMC, fmt.Sprint("p", i)).Text)
	}
	cfg := synthweb.DefaultConfig()
	cfg.Seed = 31
	cfg.NumHosts = 8
	cfg.NonEnglishShare = 0.5
	cfg.CorruptShare = 1.0
	web := synthweb.New(cfg, gen)
	for _, h := range web.Hosts {
		for i := 0; i < h.Pages && i < 25; i++ {
			p, err := web.Fetch(synthweb.PageURL(h.Name, i))
			if err != nil {
				continue
			}
			texts = append(texts, p.NetText, string(p.Body))
		}
	}
	return texts
}

func TestAnalyzeMatchesExpressions(t *testing.T) {
	for _, text := range hostileTexts() {
		checkAgainst(t, asciiPatterns, text)
	}
	for _, text := range generatedTexts() {
		checkAgainst(t, asciiPatterns, text)
	}
}

// TestUnicodeFoldingNeverMattered pins the one place the scan departs from
// the (?i) expressions it replaced — they also took "ſ" for an "s" — and
// that no generated corpus can tell: on every document of every generator
// the old expressions, the specification and the scan agree.
func TestUnicodeFoldingNeverMattered(t *testing.T) {
	for _, text := range generatedTexts() {
		checkAgainst(t, foldPatterns, text)
	}
	const longS = "uſa and uſb"
	sents := nlp.SplitSentences(longS)
	if old := foldPatterns.analyze("d", longS, sents); len(old) != 2 {
		t.Errorf("(?i) finds %d pronouns in %q, expected its two long-s accidents", len(old), longS)
	}
	if got := Analyze("d", longS, sents); len(got) != 0 {
		t.Errorf("Analyze(%q) = %+v, want nothing: matching is ASCII case-insensitive", longS, got)
	}
}

// FuzzAnalyze is differential: the scan against the expressions, element
// for element.
func FuzzAnalyze(f *testing.F) {
	for _, text := range hostileTexts() {
		f.Add(text)
	}
	f.Add("The drug did not work. Neither dose nor schedule (see Fig. 2) mattered to them, which itself was their idea.")
	f.Fuzz(func(t *testing.T, text string) {
		checkAgainst(t, asciiPatterns, text)
	})
}
