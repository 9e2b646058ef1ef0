package langid

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

var samples = map[string]string{
	"en": `The patients were treated with the new drug and the results showed
a significant reduction in tumor size across all groups that received the
higher dose during the second phase of the clinical trial.`,
	"de": `Die Patienten wurden mit dem neuen Medikament behandelt und die
Ergebnisse zeigten eine deutliche Verringerung der Tumorgröße in allen
Gruppen die während der zweiten Phase der Studie die höhere Dosis erhielten.`,
	"fr": `Les patients ont été traités avec le nouveau médicament et les
résultats ont montré une réduction significative de la taille des tumeurs
dans tous les groupes qui ont reçu la dose la plus élevée pendant la phase.`,
	"es": `Los pacientes fueron tratados con el nuevo medicamento y los
resultados mostraron una reducción significativa del tamaño del tumor en
todos los grupos que recibieron la dosis más alta durante la segunda fase.`,
}

func TestIdentifyKnownLanguages(t *testing.T) {
	id := New()
	for want, text := range samples {
		got, conf := id.Identify(text)
		if got != want {
			t.Errorf("Identify(%s sample) = %q (conf %.2f), want %q", want, got, conf, want)
		}
		if conf <= 0.5 {
			t.Errorf("%s: confidence %.2f too low", want, conf)
		}
	}
}

func TestIsEnglish(t *testing.T) {
	id := New()
	if !id.IsEnglish(samples["en"]) {
		t.Error("English sample rejected")
	}
	if id.IsEnglish(samples["de"]) {
		t.Error("German sample accepted as English")
	}
}

func TestShortInputReturnsUnknown(t *testing.T) {
	id := New()
	if lang, conf := id.Identify("hi"); lang != "" || conf != 0 {
		t.Errorf("short input = %q/%.2f, want empty", lang, conf)
	}
	if lang, _ := id.Identify(""); lang != "" {
		t.Errorf("empty input = %q", lang)
	}
}

func TestNonLetterInputReturnsUnknown(t *testing.T) {
	id := New()
	if lang, _ := id.Identify("12345 67890 !!! ??? ### 12345 67890"); lang != "" {
		t.Errorf("numeric input identified as %q", lang)
	}
}

// train adds or replaces the profile for a language from sample text.
func (id *Identifier) train(lang, sample string) {
	id.profiles[lang] = profileOf(sample)
	id.compile()
}

func TestTrainNewLanguage(t *testing.T) {
	id := New()
	id.train("xx", "zzq zzq zzq wqx wqx zzq qqz zzq wqx qqz zzq wqx zzq qqz")
	got, _ := id.Identify("zzq wqx qqz zzq zzq wqx zzq qqz wqx zzq zzq wqx")
	if got != "xx" {
		t.Errorf("custom language = %q, want xx", got)
	}
}

func TestLanguagesSorted(t *testing.T) {
	langs := New().langs
	if len(langs) < 5 {
		t.Fatalf("only %d built-in languages", len(langs))
	}
	for i := 1; i < len(langs); i++ {
		if langs[i-1] >= langs[i] {
			t.Fatalf("languages not sorted: %v", langs)
		}
	}
}

// The trailing space is part of the contract: it makes "ld " a trigram.
func TestNormalize(t *testing.T) {
	if got := normalize("Hello, WORLD!  42"); got != "hello world " {
		t.Errorf("normalize = %q", got)
	}
}

func TestMixedTextMajorityWins(t *testing.T) {
	id := New()
	mixed := samples["en"] + " " + samples["en"] + " Bonjour le monde."
	if got, _ := id.Identify(mixed); got != "en" {
		t.Errorf("mostly-English mixed text = %q", got)
	}
}

// Two languages trained from one sample are at equal distance from every
// text; the one whose name sorts first must win on every Identifier, not
// whichever a map iteration reaches first.
func TestEqualDistanceGoesToFirstName(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := New()
		id.train("xb", samples["fr"])
		id.train("xa", samples["fr"])
		if got, _ := id.Identify(samples["fr"]); got != "xa" {
			t.Fatalf("identifier %d: tied languages resolved to %q, want xa", i, got)
		}
	}
}

// ---- reference implementation ----
//
// The scoring path as it stood before the packed-key rewrite, kept as the
// differential oracle: string-keyed trigram maps, a full sort, one map walk
// per language. Its only change is that languages are walked in sorted
// order, which is also the fix the rewrite carries.

type refIdentifier struct {
	profiles map[string]map[string]int // lang -> ngram -> rank
}

func newRef() *refIdentifier {
	ref := &refIdentifier{profiles: map[string]map[string]int{}}
	for lang, seed := range builtinSeeds {
		ref.Train(lang, seed)
	}
	return ref
}

func (ref *refIdentifier) Train(lang, sample string) {
	ref.profiles[lang] = rankProfile(sample)
}

func (ref *refIdentifier) Languages() []string {
	out := make([]string, 0, len(ref.profiles))
	for l := range ref.profiles {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// rankProfile computes the rank-ordered trigram profile of text.
func rankProfile(text string) map[string]int {
	counts := ngramCounts(text)
	type kv struct {
		g string
		n int
	}
	all := make([]kv, 0, len(counts))
	for g, n := range counts {
		all = append(all, kv{g, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].g < all[j].g
	})
	if len(all) > profileSize {
		all = all[:profileSize]
	}
	ranks := make(map[string]int, len(all))
	for i, e := range all {
		ranks[e.g] = i
	}
	return ranks
}

func ngramCounts(text string) map[string]int {
	norm := normalize(text)
	counts := map[string]int{}
	for i := 0; i+3 <= len(norm); i++ {
		counts[norm[i:i+3]]++
	}
	return counts
}

// normalize lower-cases and collapses non-letters to single spaces so that
// profiles capture letter sequences, not punctuation.
func normalize(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	prevSpace := true
	for _, r := range text {
		switch {
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + 32)
			prevSpace = false
		case r >= 'a' && r <= 'z' || r > 127:
			b.WriteRune(r)
			prevSpace = false
		default:
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
		}
	}
	return b.String()
}

func (ref *refIdentifier) Identify(text string) (lang string, confidence float64) {
	counts := ngramCounts(text)
	if len(counts) < 10 {
		return "", 0
	}
	doc := rankProfile(text)
	best := ""
	bestD, secondD := int(^uint(0)>>1), int(^uint(0)>>1)
	for _, l := range ref.Languages() {
		d := outOfPlace(doc, ref.profiles[l])
		if d < bestD {
			secondD = bestD
			best, bestD = l, d
		} else if d < secondD {
			secondD = d
		}
	}
	if best == "" {
		return "", 0
	}
	// Confidence: relative margin between the best and second-best distance.
	if secondD == 0 {
		return best, 0
	}
	margin := float64(secondD-bestD) / float64(secondD)
	return best, 0.5 + margin/2
}

// outOfPlace is the Cavnar-Trenkle rank displacement distance.
func outOfPlace(doc, prof map[string]int) int {
	d := 0
	for g, r := range doc {
		pr, ok := prof[g]
		if !ok {
			d += profileSize
			continue
		}
		if pr > r {
			d += pr - r
		} else {
			d += r - pr
		}
	}
	return d
}

// ---- differential tests ----

// webCorpus draws texts from the generators the crawl and the flows run on:
// Medline- and PMC-profile documents from textgen, and from a synthweb with
// every page's markup corrupted and half its pages non-English, each page's
// gold net text and its raw body. It reports the page languages it saw.
func webCorpus() (texts []string, langs map[string]bool) {
	lex := textgen.NewLexicon(rng.New(31), textgen.DefaultLexiconSizes(), 0.75)
	gen := textgen.NewGenerator(32, lex, textgen.DefaultProfiles())
	r := rng.New(33)
	for i := 0; i < 20; i++ {
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
	langs = map[string]bool{}
	for _, h := range web.Hosts {
		for i := 0; i < h.Pages && i < 25; i++ {
			p, err := web.Fetch(synthweb.PageURL(h.Name, i))
			if err != nil {
				continue
			}
			if p.NetText != "" {
				langs[p.Lang] = true
				texts = append(texts, p.NetText)
			}
			texts = append(texts, string(p.Body))
		}
	}
	return texts, langs
}

// hostileInputs are the shapes a fixed-size table, a byte-wise window or a
// partial selection could get wrong.
func hostileInputs() []string {
	var distinct strings.Builder // 100 KB in which nearly every trigram is new
	for i := 0; distinct.Len() < 100<<10; i++ {
		distinct.WriteRune(rune(0x4E00 + i%20000))
		distinct.WriteRune(rune(0x100 + i%1500))
	}
	return []string{
		"", "a", "ab", "abc", "hi", "the cat", "12345 67890 !!! ???",
		"abcdefghijk", "abcdefghijkl", // 9 and 10 distinct trigrams
		samples["en"][:40],
		samples["en"] + " " + samples["de"],
		samples["fr"] + samples["es"] + samples["en"],
		"für über être même más también patiënten " + samples["de"],
		"caf\xc3",                    // truncated two-byte rune at the end
		"na\xe2\x82ve text \xe2\x82", // truncated three-byte runes
		"lone \x80\xbf\x80 continuation bytes \xbf in the middle of words",
		"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3",
		"\xf0\x9f\x98\x80 four-byte runes \xf0\x9f\x98 cut short \xf4\x90\x80\x80 and out of range",
		"\xed\xa0\x80 surrogate halves \xed\xbf\xbf and overlong \xc0\xaf \xe0\x80\xaf forms",
		"nul\x00separated\x00words\x00and\x00\x00runs\x00of\x00them",
		"� a real replacement character �� beside an invalid \xff byte",
		strings.Repeat("abc", 100<<10/3),      // flood: three trigrams, huge counts
		strings.Repeat("é", 50<<10),           // flood in the overflow table
		strings.Repeat("\xff", 20<<10),        // flood of invalid bytes
		strings.Repeat("x", 100<<10),          // one trigram
		distinct.String(),                     // overflow table grows many times
		strings.Repeat(samples["en"], 40),     // page-sized and beyond
		strings.Repeat(samples["de"]+" ", 40), // the same with non-ASCII letters
	}
}

// TestIdentifyMatchesReference holds Identify to the reference on language
// and on confidence, compared with ==: the rewrite changes how the answer
// is computed, not one bit of it.
func TestIdentifyMatchesReference(t *testing.T) {
	texts, langs := webCorpus()
	for _, l := range []string{"de", "en", "es", "fr", "nl"} {
		if !langs[l] {
			t.Errorf("web corpus has no %s page", l)
		}
	}
	texts = append(texts, hostileInputs()...)
	for _, s := range samples {
		texts = append(texts, s)
	}

	builtin, builtinRef := New(), newRef()
	// A trained-over and extended language set, and a single language
	// (whose second-best distance stays at its initial maximum).
	trained, trainedRef := New(), newRef()
	single := &Identifier{profiles: map[string][]uint32{}}
	singleRef := &refIdentifier{profiles: map[string]map[string]int{}}
	for _, tr := range []struct{ lang, sample string }{
		{"xx", "zzq zzq zzq wqx wqx zzq qqz zzq wqx qqz zzq wqx zzq qqz"},
		{"en", samples["en"]},
		{"pt", "não é são então coração ação também você está já até três"},
		{"big", strings.Repeat(samples["es"]+samples["fr"], 3) + texts[0]},
	} {
		trained.train(tr.lang, tr.sample)
		trainedRef.Train(tr.lang, tr.sample)
	}
	single.train("en", builtinSeeds["en"])
	singleRef.Train("en", builtinSeeds["en"])

	for _, pair := range []struct {
		name string
		id   *Identifier
		ref  *refIdentifier
	}{{"builtin", builtin, builtinRef}, {"trained", trained, trainedRef}, {"single", single, singleRef}} {
		if got, want := pair.id.langs, pair.ref.Languages(); !slices.Equal(got, want) {
			t.Errorf("%s: languages %v, reference %v", pair.name, got, want)
		}
		for i, text := range texts {
			lang, conf := pair.id.Identify(text)
			wantLang, wantConf := pair.ref.Identify(text)
			if lang != wantLang || conf != wantConf {
				t.Errorf("%s, text %d (%d bytes, %.40q): Identify = %q, %v; reference %q, %v",
					pair.name, i, len(text), text, lang, conf, wantLang, wantConf)
			}
		}
	}
}

// FuzzIdentify is the same comparison over arbitrary bytes, seeded with the
// corrupted synthetic web and the hostile shapes above.
func FuzzIdentify(f *testing.F) {
	texts, _ := webCorpus()
	for _, text := range texts {
		if len(text) < 16<<10 { // the fuzzer mutates small seeds best
			f.Add(text)
		}
	}
	for _, text := range hostileInputs() {
		f.Add(text)
	}
	id, ref := New(), newRef()
	f.Fuzz(func(t *testing.T, text string) {
		lang, conf := id.Identify(text)
		wantLang, wantConf := ref.Identify(text)
		if lang != wantLang || conf != wantConf {
			t.Fatalf("Identify(%d bytes, %.60q) = %q, %v; reference %q, %v",
				len(text), text, lang, conf, wantLang, wantConf)
		}
	})
}

// TestSelectSmallest checks the partial selection against a full sort on the
// orders a median-of-three pivot handles worst as well as on random ones.
func TestSelectSmallest(t *testing.T) {
	r := rng.New(7)
	shapes := map[string]func(n int) []uint64{
		"random": func(n int) []uint64 {
			w := make([]uint64, n)
			for i := range w {
				w[i] = r.Uint64()
			}
			return w
		},
		"few values": func(n int) []uint64 {
			w := make([]uint64, n)
			for i := range w {
				w[i] = uint64(r.Intn(4))
			}
			return w
		},
		"ascending": func(n int) []uint64 {
			w := make([]uint64, n)
			for i := range w {
				w[i] = uint64(i)
			}
			return w
		},
		"descending": func(n int) []uint64 {
			w := make([]uint64, n)
			for i := range w {
				w[i] = uint64(n - i)
			}
			return w
		},
		"organ pipe": func(n int) []uint64 {
			w := make([]uint64, n)
			for i := range w {
				w[i] = uint64(min(i, n-1-i))
			}
			return w
		},
	}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 3, 10, 299, 300, 301, 1000, 5000} {
			for _, k := range []int{1, n / 3, n - 1, n} {
				if k < 1 {
					continue
				}
				w := shape(n)
				want := slices.Clone(w)
				slices.Sort(want)
				selectSmallest(w, k)
				got := slices.Clone(w[:k])
				slices.Sort(got)
				if !slices.Equal(got, want[:k]) {
					t.Fatalf("%s, n=%d k=%d: w[:k] is not the k smallest", name, n, k)
				}
			}
		}
	}
}

// TestIdentifyConcurrent shares one Identifier among goroutines, as
// core.Registry does among the executor's workers: the pooled scratch must
// leave no trace of one call in another. Run under -race.
func TestIdentifyConcurrent(t *testing.T) {
	texts, _ := webCorpus()
	texts = append(texts, hostileInputs()...)
	id := New()
	type verdict struct {
		lang string
		conf float64
	}
	want := make([]verdict, len(texts))
	for i, text := range texts {
		want[i].lang, want[i].conf = id.Identify(text)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine starts elsewhere, so long and short texts,
			// ASCII and not, interleave on the pool.
			for n := range texts {
				i := (n*7 + g*len(texts)/8) % len(texts)
				lang, conf := id.Identify(texts[i])
				if (verdict{lang, conf}) != want[i] {
					t.Errorf("goroutine %d, text %d: %q, %v; serial run %q, %v",
						g, i, lang, conf, want[i].lang, want[i].conf)
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkIdentify(b *testing.B) {
	lex := textgen.NewLexicon(rng.New(31), textgen.DefaultLexiconSizes(), 0.75)
	gen := textgen.NewGenerator(32, lex, textgen.DefaultProfiles())
	r := rng.New(33)
	var page strings.Builder
	for i := 0; page.Len() < 4<<10; i++ {
		page.WriteString(gen.Doc(r, textgen.Relevant, fmt.Sprint("w", i)).Text)
		page.WriteByte('\n')
	}
	id := New()
	for _, in := range []struct{ name, text string }{
		{"sample200", samples["en"]},
		{"page4k", page.String()[:4<<10]},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(in.text)))
			for i := 0; i < b.N; i++ {
				_, _ = id.Identify(in.text)
			}
		})
	}
}
