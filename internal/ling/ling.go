// Package ling implements the linguistic analysis of §3.2/§4.3.1: each
// sentence is scanned "for occurrences of pronouns, negation, and
// parenthesis using different sets of regular expressions, and each found
// mention ... is added to the result set together with information on
// document ID, sentence ID, and start/end positions".
//
// Negation detection follows the paper exactly: "a rather simple method ...
// using a set of regular expressions to find mentions of the words not,
// nor, and neither" (§4.3.1). Pronouns are counted in six classes.
//
// The paper's expressions are word-bounded alternations over closed word
// lists and one pair of brackets, so no regular-expression engine runs
// here: one scan over the text's ASCII word runs looks each run up in the
// 28-word list and pairs parentheses as it goes. ling_test.go holds the
// expressions themselves and checks the scan against them.
package ling

import "webtextie/internal/nlp"

// Kind classifies an annotation.
type Kind string

// The annotation kinds Analyze produces.
const (
	KindNegation Kind = "negation"
	KindPronoun  Kind = "pronoun"
	KindParen    Kind = "paren"
)

// Annotation is one stand-off annotation (§3.2): every result is recorded
// "together with information on document ID, sentence ID, and start/end
// positions" rather than by mutating the text.
type Annotation struct {
	// DocID identifies the document.
	DocID string
	// Sentence is the index of the containing sentence (-1 if unknown).
	Sentence int
	// Start/End are byte offsets into the document text.
	Start, End int
	// Kind classifies the annotation.
	Kind Kind
	// Value carries the payload: the matched surface form, or the pronoun
	// class.
	Value string
	// Source names the producing annotator.
	Source string
}

// PronounClassNames names the six classes in annotation values.
var PronounClassNames = []string{
	"subject", "object", "possessive", "demonstrative", "relative", "reflexive",
}

// group is a mention's place in Analyze's output: negations, then the
// pronoun classes from reflexive down to subject, then parentheses.
type group uint8

const (
	groupNegation group = iota
	groupReflexive
	groupRelative
	groupDemonstrative
	groupPossessive
	groupObject
	groupSubject
	groupParen
	numGroups
)

// pronounClass is the PronounClassNames index of a pronoun group.
func (g group) pronounClass() int { return int(groupSubject - g) }

// closedWord is one entry of the word lists, in lower case.
type closedWord struct {
	word  string
	group group
}

// closedWords is the negation cues and the six pronoun classes, indexed by
// word length. A mention is a whole word — a maximal run of [0-9A-Za-z_],
// what \b delimits — equal to an entry up to ASCII case; no word is in two
// lists, so no two mentions overlap.
var closedWords = [...][]closedWord{
	2: {{"he", groupSubject}, {"it", groupSubject}, {"we", groupSubject}, {"us", groupObject}},
	3: {
		{"not", groupNegation}, {"nor", groupNegation},
		{"she", groupSubject},
		{"him", groupObject}, {"her", groupObject},
		{"his", groupPossessive}, {"its", groupPossessive}, {"our", groupPossessive},
		{"who", groupRelative},
	},
	4: {
		{"they", groupSubject}, {"them", groupObject},
		{"this", groupDemonstrative}, {"that", groupDemonstrative},
		{"whom", groupRelative},
	},
	5: {
		{"their", groupPossessive},
		{"these", groupDemonstrative}, {"those", groupDemonstrative},
		{"which", groupRelative}, {"whose", groupRelative},
	},
	6:  {{"itself", groupReflexive}},
	7:  {{"neither", groupNegation}, {"himself", groupReflexive}, {"herself", groupReflexive}},
	10: {{"themselves", groupReflexive}},
}

// wordByte marks the bytes of a word run: [0-9A-Za-z_].
var wordByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c >= '0' && c <= '9' || c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c == '_'
	}
	return t
}()

// closedLengths[c] has bit n set when a closed word of n bytes starts with
// the byte c, in either case: most runs of a text are turned away on it.
var closedLengths = func() (t [256]uint16) {
	for n, words := range closedWords {
		for _, cw := range words {
			t[cw.word[0]] |= 1 << n
			t[cw.word[0]-'a'+'A'] |= 1 << n
		}
	}
	return t
}()

// closedGroup looks a word run up in closedWords.
func closedGroup(run string) (group, bool) {
	if len(run) >= len(closedWords) || closedLengths[run[0]]&(1<<len(run)) == 0 {
		return 0, false
	}
next:
	for _, cw := range closedWords[len(run)] {
		for i := 0; i < len(run); i++ {
			// Setting bit 5 lower-cases a letter and maps no digit or
			// underscore onto one.
			if run[i]|0x20 != cw.word[i] {
				continue next
			}
		}
		return cw.group, true
	}
	return 0, false
}

// mention is one hit of the scan.
type mention struct {
	group      group
	start, end int
	sentence   int // of start; -1 between sentences
}

// sentenceCursor answers "which sentence holds this offset" for offsets
// asked in ascending order, over ascending, disjoint spans.
type sentenceCursor struct {
	spans []nlp.Span
	next  int // first span not wholly before the last offset asked about
}

// at returns the index of the sentence containing pos, -1 when pos falls
// between sentences.
func (c *sentenceCursor) at(pos int) int {
	for c.next < len(c.spans) && c.spans[c.next].End <= pos {
		c.next++
	}
	if c.next < len(c.spans) && pos >= c.spans[c.next].Start {
		return c.next
	}
	return -1
}

// scan appends the mentions of text to dst in the order they end. A ")"
// closes the nearest "(" before it unless another bracket lies between:
// the leftmost non-overlapping matches of \(([^()]*)\).
func scan(dst []mention, text string, sentences []nlp.Span) []mention {
	cur := sentenceCursor{spans: sentences}
	open, openSent := -1, -1 // the last "(" no ")" has closed yet
	for i := 0; i < len(text); {
		switch c := text[i]; {
		case wordByte[c]:
			start := i
			for i++; i < len(text) && wordByte[text[i]]; i++ {
			}
			if g, ok := closedGroup(text[start:i]); ok {
				dst = append(dst, mention{g, start, i, cur.at(start)})
			}
		case c == '(':
			open, openSent = i, cur.at(i)
			i++
		case c == ')' && open >= 0:
			dst = append(dst, mention{groupParen, open, i + 1, openSent})
			open = -1
			i++
		default:
			i++
		}
	}
	return dst
}

// Analyze scans a document's text and returns stand-off annotations for
// negation particles, pronouns (per class), and parenthesized text:
// negations first, then pronouns from the reflexive class down to the
// subject class, then parentheses, each in text order. Words match up to
// ASCII case. Sentence indexes are assigned from the provided spans, which
// must be ascending and disjoint, as nlp.SplitSentences returns them.
func Analyze(docID, text string, sentences []nlp.Span) []Annotation {
	// An abstract's mentions fit the stack; a full text's spill to the heap.
	mentions := scan(make([]mention, 0, 64), text, sentences)

	// Counting sort by group, stable, so each group stays in text order.
	var at [numGroups + 1]int
	for _, m := range mentions {
		at[m.group+1]++
	}
	for g := 1; g < len(at); g++ {
		at[g] += at[g-1]
	}
	out := make([]Annotation, len(mentions))
	for _, m := range mentions {
		a := Annotation{
			DocID: docID, Sentence: m.sentence, Start: m.start, End: m.end,
			Source: "ling",
		}
		switch m.group {
		case groupNegation:
			a.Kind, a.Value = KindNegation, text[m.start:m.end]
		case groupParen:
			a.Kind, a.Value = KindParen, text[m.start:m.end]
		default:
			a.Kind, a.Value = KindPronoun, PronounClassNames[m.group.pronounClass()]
		}
		out[at[m.group]] = a
		at[m.group]++
	}
	return out
}

// DocStats are per-document linguistic measurements, the inputs to the
// Fig 6 distributions.
type DocStats struct {
	DocID string
	// Chars is the document length in bytes (Fig 6a).
	Chars int
	// Sentences is the sentence count.
	Sentences int
	// MeanSentenceLen is the mean sentence length in characters (Fig 6b).
	MeanSentenceLen float64
	// Negations, Parens count mentions (Fig 6c and §4.3.1).
	Negations, Parens int
	// Pronouns counts mentions per class.
	Pronouns [6]int
}

// NegPerSentence returns negations per sentence (incidence relative to
// document length is Chars-normalized by callers).
func (d DocStats) NegPerSentence() float64 {
	if d.Sentences == 0 {
		return 0
	}
	return float64(d.Negations) / float64(d.Sentences)
}

// Measure computes DocStats for a text using the package's analyzers.
func Measure(docID, text string) DocStats {
	sents := nlp.SplitSentences(text)
	return Stats(docID, text, sents, Analyze(docID, text, sents))
}

// Stats computes DocStats from a text's sentence spans and its
// annotations. Measure passes nlp.SplitSentences(text) and their Analyze
// output; since no count reads an annotation's sentence index, anns may be
// Analyze's output over the text with any spans.
func Stats(docID, text string, sents []nlp.Span, anns []Annotation) DocStats {
	st := DocStats{DocID: docID, Chars: len(text), Sentences: len(sents)}
	var total int
	for _, s := range sents {
		total += s.Len()
	}
	if len(sents) > 0 {
		st.MeanSentenceLen = float64(total) / float64(len(sents))
	}
	for _, a := range anns {
		switch a.Kind {
		case KindNegation:
			st.Negations++
		case KindParen:
			st.Parens++
		case KindPronoun:
			for i, n := range PronounClassNames {
				if a.Value == n {
					st.Pronouns[i]++
				}
			}
		}
	}
	return st
}
