// Package nlp provides the linguistic preprocessing operators of the
// paper's IE package (§3.1-3.2): sentence boundary detection and
// tokenization, both annotating stand-off spans over the input text.
//
// Sentence detection on web text is deliberately fallible in the same way
// the paper describes: input that arrives without sentence structure
// (boilerplate residue, keyword lists) yields absurdly long "sentences"
// (> 2000 characters), which downstream taggers must survive (§4.2).
package nlp

// Span is a half-open [Start, End) byte range over a document text.
type Span struct {
	Start, End int
}

// Len returns the span length in bytes.
func (s Span) Len() int { return s.End - s.Start }

// knownAbbrevs are common abbreviations whose trailing period does not end
// a sentence.
var knownAbbrevs = map[string]bool{
	"e.g": true, "i.e": true, "etc": true, "vs": true, "fig": true,
	"figs": true, "dr": true, "mr": true, "mrs": true, "prof": true,
	"al": true, "no": true, "vol": true, "approx": true, "ca": true,
	"cf": true, "resp": true, "jr": true, "st": true,
}

// SplitSentences returns the sentence spans of text. Boundaries are
// periods, question and exclamation marks followed by whitespace and an
// upper-case letter, digit or end of text, with abbreviation and
// single-letter-initial suppression. Text without terminal punctuation
// becomes one (possibly enormous) sentence. The returned slice is the
// only allocation.
func SplitSentences(text string) []Span {
	n := len(text)
	// Web prose averages well over 64 bytes per sentence; the estimate
	// only has to make growth rare, not impossible.
	spans := make([]Span, 0, 1+n/64)
	start := 0
	i := 0
	for i < n {
		c := text[i]
		if c != '.' && c != '?' && c != '!' {
			i++
			continue
		}
		// Candidate boundary. Look behind for abbreviation/initial.
		if c == '.' {
			w := lastWord(text, i)
			if isKnownAbbrev(w) || len(w) == 1 && w[0] >= 'A' && w[0] <= 'Z' {
				i++
				continue
			}
			// Decimal number: digit on both sides.
			if i > 0 && i+1 < n && isDigit(text[i-1]) && isDigit(text[i+1]) {
				i++
				continue
			}
		}
		// Consume trailing closers (quotes, parens) after the punctuation.
		j := i + 1
		for j < n && (text[j] == ')' || text[j] == '"' || text[j] == '\'') {
			j++
		}
		if j >= n {
			spans, start = flushSpan(spans, text, start, j)
			i = j
			continue
		}
		if isSpace(text[j]) {
			k := j
			for k < n && isSpace(text[k]) {
				k++
			}
			if k >= n || isUpper(text[k]) || isDigit(text[k]) || text[k] == '(' {
				spans, start = flushSpan(spans, text, start, j)
				i = k
				continue
			}
		}
		i++
	}
	if start < n {
		spans, _ = flushSpan(spans, text, start, n)
	}
	return spans
}

// flushSpan appends [start, end) to spans with leading whitespace
// trimmed, returning the grown slice and the next sentence start. A
// package function rather than a closure: closures capturing locals heap
// allocate in the hot path (boxing check).
func flushSpan(spans []Span, text string, start, end int) ([]Span, int) {
	for start < end && isSpace(text[start]) {
		start++
	}
	if end > start {
		spans = append(spans, Span{Start: start, End: end})
	}
	return spans, end
}

// maxAbbrevLen is the length of the longest knownAbbrevs key ("approx").
const maxAbbrevLen = 6

// isKnownAbbrev reports whether w (case-insensitively) is a known
// abbreviation. The fold runs through a stack buffer and the map lookup
// uses the no-alloc string-conversion index form, so this replaces the
// former knownAbbrevs[strings.ToLower(w)] without its per-boundary
// allocation. lastWord only yields ASCII alnum-and-period runs, so the
// per-byte fold is exact.
func isKnownAbbrev(w string) bool {
	if len(w) == 0 || len(w) > maxAbbrevLen {
		return false
	}
	var buf [maxAbbrevLen]byte
	for i := 0; i < len(w); i++ {
		c := w[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return knownAbbrevs[string(buf[:len(w)])]
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isUpper(c byte) bool { return c >= 'A' && c <= 'Z' }
func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || isDigit(c)
}

// lastWord returns the alphanumeric run immediately before position i,
// including internal periods so that dotted abbreviations ("e.g", "i.e")
// are recovered whole.
func lastWord(text string, i int) string {
	j := i
	for j > 0 && (isAlnum(text[j-1]) || text[j-1] == '.' && j-1 > 0 && isAlnum(text[j-2])) {
		j--
	}
	return text[j:i]
}

// TokenSpan is a token with its byte span and surface form.
type TokenSpan struct {
	Span
	Text string
}

// Tokenize splits a text slice into tokens: alphanumeric runs (with
// internal hyphens kept, as biomedical names like "GAD-67" require) and
// single punctuation characters. Whitespace separates tokens. The
// returned slice is the only allocation.
func Tokenize(text string, base int) []TokenSpan {
	// ~4 bytes per token on web prose; an estimate, not a bound.
	out := make([]TokenSpan, 0, 1+len(text)/4)
	i, n := 0, len(text)
	for i < n {
		c := text[i]
		if isSpace(c) {
			i++
			continue
		}
		if isAlnum(c) {
			j := i + 1
			for j < n {
				if isAlnum(text[j]) {
					j++
					continue
				}
				// Internal hyphen or period between alphanumerics stays in
				// the token (GAD-67, 1.5, U.S.A-style forms handled by the
				// sentence splitter already).
				if (text[j] == '-' || text[j] == '.') && j+1 < n && isAlnum(text[j+1]) {
					j += 2
					continue
				}
				break
			}
			out = append(out, TokenSpan{Span{base + i, base + j}, text[i:j]})
			i = j
			continue
		}
		out = append(out, TokenSpan{Span{base + i, base + i + 1}, text[i : i+1]})
		i++
	}
	return out
}

// SentenceTokens runs sentence splitting and per-sentence tokenization in
// one pass, returning parallel slices.
func SentenceTokens(text string) ([]Span, [][]TokenSpan) {
	sents := SplitSentences(text)
	toks := make([][]TokenSpan, len(sents))
	for i, s := range sents {
		toks[i] = Tokenize(text[s.Start:s.End], s.Start)
	}
	return sents, toks
}
