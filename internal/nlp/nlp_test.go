package nlp

import (
	"strings"
	"testing"
	"testing/quick"
)

func sentStrings(text string) []string {
	spans := SplitSentences(text)
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = text[s.Start:s.End]
	}
	return out
}

func TestSplitSimple(t *testing.T) {
	got := sentStrings("First sentence. Second one! Third? Yes.")
	want := []string{"First sentence.", "Second one!", "Third?", "Yes."}
	if len(got) != len(want) {
		t.Fatalf("got %d sentences: %q", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sentence %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSplitAbbreviations(t *testing.T) {
	got := sentStrings("The dose was low, e.g. 5 mg. Results follow.")
	if len(got) != 2 {
		t.Fatalf("abbreviation split wrong: %q", got)
	}
	got = sentStrings("See Fig. 2 for details. Next sentence.")
	if len(got) != 2 {
		t.Fatalf("Fig. split wrong: %q", got)
	}
}

func TestSplitInitials(t *testing.T) {
	got := sentStrings("Written by J. Smith. The end.")
	if len(got) != 2 {
		t.Fatalf("initials split wrong: %q", got)
	}
}

func TestSplitDecimalNumbers(t *testing.T) {
	got := sentStrings("The value was 3.14 exactly. Done.")
	if len(got) != 2 {
		t.Fatalf("decimal split wrong: %q", got)
	}
}

func TestSplitNoTerminal(t *testing.T) {
	// Degenerate web input: no sentence structure at all → one huge span.
	text := strings.Repeat("home login menu ", 300)
	got := SplitSentences(text)
	if len(got) != 1 {
		t.Fatalf("structureless input split into %d spans", len(got))
	}
	if got[0].Len() < 2000 {
		t.Errorf("degenerate sentence only %d chars", got[0].Len())
	}
}

func TestSplitLowercaseContinuation(t *testing.T) {
	got := sentStrings("The approx. value is fine. next word lowercase is not a boundary.")
	// "fine." followed by lowercase must NOT split.
	if len(got) != 1 {
		t.Fatalf("lowercase continuation split: %q", got)
	}
}

func TestSpansCoverOriginalText(t *testing.T) {
	text := "Alpha beta. Gamma delta? Epsilon (zeta). Final"
	for _, s := range SplitSentences(text) {
		if s.Start < 0 || s.End > len(text) || s.Start >= s.End {
			t.Fatalf("bad span %+v", s)
		}
	}
}

func TestSplitEmptyAndWhitespace(t *testing.T) {
	if got := SplitSentences(""); len(got) != 0 {
		t.Errorf("empty text: %v", got)
	}
	if got := SplitSentences("   \n\t  "); len(got) != 0 {
		t.Errorf("whitespace text: %v", got)
	}
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("The GAD-67 dose (5.5 mg) works.", 0)
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.Text)
	}
	want := []string{"The", "GAD-67", "dose", "(", "5.5", "mg", ")", "works", "."}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	text := "ab cd."
	for _, tk := range Tokenize(text, 10) {
		if text[tk.Start-10:tk.End-10] != tk.Text {
			t.Fatalf("offset mismatch for %+v", tk)
		}
	}
}

func TestTokenizeProperty(t *testing.T) {
	// Property: concatenation of token texts equals input minus whitespace.
	err := quick.Check(func(s string) bool {
		clean := strings.Map(func(r rune) rune {
			if r < 33 || r > 126 {
				return ' '
			}
			return r
		}, s)
		var b strings.Builder
		for _, tk := range Tokenize(clean, 0) {
			b.WriteString(tk.Text)
		}
		return b.String() == strings.Join(strings.Fields(clean), "")
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSentenceTokens(t *testing.T) {
	text := "One two. Three four five."
	sents, toks := SentenceTokens(text)
	if len(sents) != 2 || len(toks) != 2 {
		t.Fatalf("sents=%d toks=%d", len(sents), len(toks))
	}
	if len(toks[0]) != 3 || len(toks[1]) != 4 {
		t.Fatalf("token counts: %d, %d", len(toks[0]), len(toks[1]))
	}
	// Token spans must be inside their sentence span.
	for i, s := range sents {
		for _, tk := range toks[i] {
			if tk.Start < s.Start || tk.End > s.End {
				t.Fatalf("token %+v outside sentence %+v", tk, s)
			}
		}
	}
}

func BenchmarkSplitSentences(b *testing.B) {
	text := strings.Repeat("The patient was treated with the drug. The response was significant. ", 100)
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		_ = SplitSentences(text)
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("The BRCA1 gene regulates tumor growth in patients. ", 100)
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		_ = Tokenize(text, 0)
	}
}

// FuzzSentenceTokens holds the stand-off spans every tagger reads to their
// contract on arbitrary text: sentences are in bounds, ordered and
// disjoint; every token lies inside its sentence and is the text it spans;
// and inside a sentence every non-space byte is covered by exactly one
// token, and no space byte by any.
func FuzzSentenceTokens(f *testing.F) {
	for _, s := range []string{
		"", "   ", "One two. Three four five.", "Dr. Smith saw e.g. 1.5 mg. (Then) left!",
		"GAD-67 rose -- and fell.. ?! \"Quoted.\" Next", "no terminal punctuation at all",
		"tabs\tand\r\nnewlines. Ünïcödé wörds. \xff\xfe invalid.",
		strings.Repeat("word ", 500),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		sents, toks := SentenceTokens(text)
		if len(toks) != len(sents) {
			t.Fatalf("%d sentences, %d token lists", len(sents), len(toks))
		}
		prev := 0
		for i, s := range sents {
			if s.Start < prev || s.End <= s.Start || s.End > len(text) {
				t.Fatalf("sentence %d %+v out of order or bounds (previous ends at %d, text %d bytes)", i, s, prev, len(text))
			}
			prev = s.End
			cover := make([]int, s.Len())
			for _, tk := range toks[i] {
				if tk.Start < s.Start || tk.End > s.End || tk.End <= tk.Start {
					t.Fatalf("token %+v outside sentence %+v", tk, s)
				}
				if tk.Text != text[tk.Start:tk.End] {
					t.Fatalf("token %+v does not spell %q", tk, text[tk.Start:tk.End])
				}
				for j := tk.Start; j < tk.End; j++ {
					cover[j-s.Start]++
				}
			}
			for j, n := range cover {
				want := 1
				if isSpace(text[s.Start+j]) {
					want = 0
				}
				if n != want {
					t.Fatalf("byte %d (%q) of %q covered %d times, want %d", s.Start+j, text[s.Start+j], text, n, want)
				}
			}
		}
	})
}
