package textgen

import (
	"strings"
	"testing"
	"testing/quick"

	"webtextie/internal/rng"
)

func testLexicon(t *testing.T) *Lexicon {
	t.Helper()
	return NewLexicon(rng.New(1), LexiconSizes{Genes: 400, Drugs: 150, Diseases: 150}, 0.75)
}

func testGenerator(t *testing.T) *Generator {
	t.Helper()
	return NewGenerator(2, testLexicon(t), DefaultProfiles())
}

func TestLexiconSizes(t *testing.T) {
	l := testLexicon(t)
	if got := len(l.ByType(Gene)); got != 400 {
		t.Errorf("genes = %d, want 400", got)
	}
	if got := len(l.ByType(Drug)); got != 150 {
		t.Errorf("drugs = %d, want 150", got)
	}
	if got := len(l.ByType(Disease)); got != 150 {
		t.Errorf("diseases = %d, want 150", got)
	}
}

func TestLexiconNamesUniqueWithinType(t *testing.T) {
	l := testLexicon(t)
	for _, et := range EntityTypes {
		seen := map[string]bool{}
		for _, e := range l.ByType(et) {
			if seen[e.Name] {
				t.Errorf("%v: duplicate canonical name %q", et, e.Name)
			}
			seen[e.Name] = true
		}
	}
}

func TestLexiconDictCoverage(t *testing.T) {
	l := NewLexicon(rng.New(3), LexiconSizes{Genes: 2000, Drugs: 500, Diseases: 500}, 0.75)
	in := 0
	total := 0
	for _, et := range EntityTypes {
		for _, e := range l.ByType(et) {
			total++
			if e.InDictionary {
				in++
			}
		}
	}
	frac := float64(in) / float64(total)
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("dictionary coverage = %.3f, want ~0.75", frac)
	}
}

func TestLexiconLookup(t *testing.T) {
	l := testLexicon(t)
	e := l.ByType(Gene)[0]
	got, ok := l.Lookup(e.Name)
	if !ok || got != e {
		t.Fatalf("Lookup(%q) failed", e.Name)
	}
	if _, ok := l.Lookup("definitely-not-a-name-xyz"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

func TestLexiconDeterminism(t *testing.T) {
	a := NewLexicon(rng.New(9), DefaultLexiconSizes(), 0.75)
	b := NewLexicon(rng.New(9), DefaultLexiconSizes(), 0.75)
	for _, et := range EntityTypes {
		ea, eb := a.ByType(et), b.ByType(et)
		if len(ea) != len(eb) {
			t.Fatalf("%v: lengths differ", et)
		}
		for i := range ea {
			if ea[i].Name != eb[i].Name || ea[i].InDictionary != eb[i].InDictionary {
				t.Fatalf("%v: entry %d differs", et, i)
			}
		}
	}
}

func TestDictionarySurfacesOnlyInDict(t *testing.T) {
	l := testLexicon(t)
	surfaces := l.DictionarySurfaces(Gene)
	if len(surfaces) == 0 {
		t.Fatal("no gene dictionary surfaces")
	}
	for _, s := range surfaces {
		e, ok := l.Lookup(s)
		if ok && !e.InDictionary {
			t.Errorf("surface %q belongs to an OOV entry", s)
		}
	}
}

func TestRandomTLAShape(t *testing.T) {
	r := rng.New(4)
	for i := 0; i < 200; i++ {
		s := RandomTLA(r)
		if len(s) != 3 || s != strings.ToUpper(s) {
			t.Fatalf("bad TLA %q", s)
		}
	}
}

func TestDocGenerationBasics(t *testing.T) {
	g := testGenerator(t)
	r := rng.New(10)
	for _, kind := range CorpusKinds {
		d := g.Doc(r, kind, "d1")
		if len(d.Sentences) == 0 {
			t.Fatalf("%v: empty doc", kind)
		}
		if d.Text == "" {
			t.Fatalf("%v: no rendered text", kind)
		}
		if len(d.SentSpans) != len(d.Sentences) {
			t.Fatalf("%v: %d spans for %d sentences", kind, len(d.SentSpans), len(d.Sentences))
		}
	}
}

func TestDocDeterminism(t *testing.T) {
	g1 := testGenerator(t)
	g2 := testGenerator(t)
	d1 := g1.Doc(rng.New(77), Relevant, "x")
	d2 := g2.Doc(rng.New(77), Relevant, "x")
	if d1.Text != d2.Text {
		t.Fatal("same seed produced different documents")
	}
}

func TestMentionOffsetsMatchText(t *testing.T) {
	g := testGenerator(t)
	r := rng.New(20)
	checked := 0
	for i := 0; i < 50; i++ {
		d := g.Doc(r, Medline, "m")
		for _, m := range d.Mentions {
			if m.Start < 0 || m.End > len(d.Text) || m.Start >= m.End {
				t.Fatalf("bad mention span [%d,%d) in doc of len %d", m.Start, m.End, len(d.Text))
			}
			if got := d.Text[m.Start:m.End]; got != m.Name {
				t.Fatalf("mention text %q != name %q", got, m.Name)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no mentions generated in 50 Medline docs")
	}
}

func TestMentionSentenceIndexValid(t *testing.T) {
	g := testGenerator(t)
	r := rng.New(21)
	for i := 0; i < 20; i++ {
		d := g.Doc(r, PMC, "p")
		for _, m := range d.Mentions {
			if m.Sentence < 0 || m.Sentence >= len(d.Sentences) {
				t.Fatalf("mention sentence %d out of range", m.Sentence)
			}
			span := d.SentSpans[m.Sentence]
			if m.Start < span[0] || m.End > span[1] {
				t.Fatalf("mention [%d,%d) outside its sentence span %v", m.Start, m.End, span)
			}
		}
	}
}

func TestSentenceSpansCoverTextInOrder(t *testing.T) {
	g := testGenerator(t)
	d := g.Doc(rng.New(22), Relevant, "r")
	prev := 0
	for i, sp := range d.SentSpans {
		if sp[0] < prev {
			t.Fatalf("span %d starts before previous end", i)
		}
		if sp[1] > len(d.Text) {
			t.Fatalf("span %d exceeds text", i)
		}
		prev = sp[1]
	}
}

func TestCorpusLengthOrdering(t *testing.T) {
	g := testGenerator(t)
	r := rng.New(30)
	mean := func(kind CorpusKind, n int) float64 {
		var total int
		for i := 0; i < n; i++ {
			total += len(g.Doc(r, kind, "x").Text)
		}
		return float64(total) / float64(n)
	}
	medline := mean(Medline, 200)
	irrel := mean(Irrelevant, 200)
	rel := mean(Relevant, 200)
	pmc := mean(PMC, 30)
	// Fig 6a ordering: PMC > Relevant > Irrelevant > Medline.
	if !(pmc > rel && rel > irrel && irrel > medline) {
		t.Fatalf("length ordering violated: pmc=%.0f rel=%.0f irrel=%.0f medl=%.0f",
			pmc, rel, irrel, medline)
	}
}

func TestMedlineMeanCharsNearTable3(t *testing.T) {
	g := testGenerator(t)
	r := rng.New(31)
	var total int
	const n = 500
	for i := 0; i < n; i++ {
		total += len(g.Doc(r, Medline, "m").Text)
	}
	mean := float64(total) / n
	// Table 3: Medline mean 865 chars. Accept a generous band.
	if mean < 500 || mean > 1400 {
		t.Fatalf("Medline mean chars = %.0f, want ~865", mean)
	}
}

func TestNegationRateOrdering(t *testing.T) {
	g := testGenerator(t)
	r := rng.New(32)
	rate := func(kind CorpusKind, docs int) float64 {
		neg, total := 0, 0
		for i := 0; i < docs; i++ {
			d := g.Doc(r, kind, "x")
			for _, s := range d.Sentences {
				total++
				if s.Negated {
					neg++
				}
			}
		}
		return float64(neg) / float64(total)
	}
	medl := rate(Medline, 400)
	rel := rate(Relevant, 150)
	pmc := rate(PMC, 20)
	// Fig 6c ordering: PMC > Relevant > Medline.
	if !(pmc > rel && rel > medl) {
		t.Fatalf("negation ordering violated: pmc=%.3f rel=%.3f medl=%.3f", pmc, rel, medl)
	}
}

func TestEntityDensityShape(t *testing.T) {
	g := testGenerator(t)
	r := rng.New(33)
	perKSent := func(kind CorpusKind, docs int, et EntityType) float64 {
		mentions, sents := 0, 0
		for i := 0; i < docs; i++ {
			d := g.Doc(r, kind, "x")
			sents += len(d.Sentences)
			for _, m := range d.Mentions {
				if m.Type == et {
					mentions++
				}
			}
		}
		return 1000 * float64(mentions) / float64(sents)
	}
	// §4.3.2: relevant >> irrelevant for every class.
	for _, et := range EntityTypes {
		rel := perKSent(Relevant, 200, et)
		irrel := perKSent(Irrelevant, 200, et)
		if rel < 5*irrel {
			t.Errorf("%v: relevant density %.1f not >> irrelevant %.1f", et, rel, irrel)
		}
	}
	// Gene density highest in Medline (avg_medl = 415.58).
	gm := perKSent(Medline, 400, Gene)
	if gm < 250 || gm > 600 {
		t.Errorf("Medline gene density per 1000 sentences = %.1f, want ~415", gm)
	}
}

func TestDegenerateSentencesOnlyOnWeb(t *testing.T) {
	g := testGenerator(t)
	r := rng.New(34)
	for i := 0; i < 100; i++ {
		d := g.Doc(r, Medline, "m")
		for _, s := range d.Sentences {
			if s.Degenerate {
				t.Fatal("Medline doc contains degenerate sentence")
			}
		}
	}
	found := false
	for i := 0; i < 300 && !found; i++ {
		d := g.Doc(r, Irrelevant, "w")
		for _, s := range d.Sentences {
			if s.Degenerate {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no degenerate sentences generated on web corpus in 300 docs")
	}
}

func TestTokensHaveKnownTags(t *testing.T) {
	known := map[string]bool{}
	for _, tag := range []string{
		TagNN, TagNNS, TagNNP, TagVB, TagVBZ, TagVBD, TagVBN, TagJJ, TagRB,
		TagDT, TagIN, TagPRP, TagPRPS, TagWDT, TagCD, TagNEG,
		TagLRB, TagRRB, TagComma, TagPeriod, TagSYM,
	} {
		known[tag] = true
	}
	g := testGenerator(t)
	r := rng.New(35)
	for i := 0; i < 20; i++ {
		d := g.Doc(r, Relevant, "x")
		for _, s := range d.Sentences {
			for _, tok := range s.Tokens {
				if !known[tok.Tag] {
					t.Fatalf("unknown tag %q for token %q", tok.Tag, tok.Text)
				}
				if tok.Text == "" {
					t.Fatal("empty token text")
				}
			}
		}
	}
}

func TestPronounsAnnotated(t *testing.T) {
	g := testGenerator(t)
	r := rng.New(36)
	counts := make([]int, NumPronounClasses)
	for i := 0; i < 30; i++ {
		d := g.Doc(r, PMC, "p")
		for _, s := range d.Sentences {
			for _, tok := range s.Tokens {
				if tok.Pron > 0 {
					counts[tok.Pron-1]++
				}
			}
		}
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("pronoun class %v never generated", PronounClass(c))
		}
	}
}

func TestZipfDrawInRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := rng.New(seed)
		v := zipfDraw(r, int(n), 0.9)
		return v >= 0 && v < int(n)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntityTypeString(t *testing.T) {
	cases := map[EntityType]string{None: "none", Gene: "gene", Drug: "drug", Disease: "disease"}
	for et, want := range cases {
		if et.String() != want {
			t.Errorf("%d.String() = %q, want %q", et, et.String(), want)
		}
	}
}

func TestMentionsResolveToLexicon(t *testing.T) {
	g := testGenerator(t)
	r := rng.New(37)
	resolved, total := 0, 0
	for i := 0; i < 100; i++ {
		d := g.Doc(r, Medline, "m")
		for _, m := range d.Mentions {
			total++
			if m.Entry != nil {
				resolved++
				if m.Entry.Type != m.Type {
					t.Errorf("mention %q resolved to wrong class %v (want %v)",
						m.Name, m.Entry.Type, m.Type)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no mentions")
	}
	if float64(resolved)/float64(total) < 0.9 {
		t.Errorf("only %d/%d mentions resolve to lexicon entries", resolved, total)
	}
}
