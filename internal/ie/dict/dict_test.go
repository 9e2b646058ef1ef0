package dict

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode"
	"unicode/utf8"

	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

func TestFindBasic(t *testing.T) {
	m := Build("disease", []string{"thymoma", "chronic pain", "nausea"}, DefaultOptions())
	text := "Patients with thymoma reported nausea and chronic pain daily."
	got := m.Find(text)
	if len(got) != 3 {
		t.Fatalf("matches = %+v", got)
	}
	for _, match := range got {
		if text[match.Start:match.End] != match.Surface {
			t.Errorf("span/surface mismatch: %+v", match)
		}
	}
	if got[0].Surface != "thymoma" || got[1].Surface != "nausea" || got[2].Surface != "chronic pain" {
		t.Errorf("order/content: %+v", got)
	}
}

func TestWholeWordOnly(t *testing.T) {
	m := Build("drug", []string{"aspirin"}, DefaultOptions())
	// "aspirins" matches via the plural variant and the final bare
	// "aspirin" matches; "aspirinX" must not.
	if got := m.Find("aspirins-like compound aspirinX and aspirin."); len(got) != 2 {
		t.Fatalf("matches = %+v", got)
	}
	m2 := Build("drug", []string{"aspirin"}, Options{CaseInsensitive: true})
	if got := m2.Find("XaspirinY"); len(got) != 0 {
		t.Fatalf("substring matched: %+v", got)
	}
}

func TestCaseInsensitive(t *testing.T) {
	m := Build("drug", []string{"Aspirin"}, DefaultOptions())
	got := m.Find("ASPIRIN and aspirin and Aspirin")
	if len(got) != 3 {
		t.Fatalf("matches = %+v", got)
	}
	for _, match := range got {
		if match.Canonical != "Aspirin" {
			t.Errorf("canonical = %q", match.Canonical)
		}
	}
}

func TestCaseSensitiveOption(t *testing.T) {
	m := Build("gene", []string{"BRCA1"}, Options{Variants: false, CaseInsensitive: false})
	if got := m.Find("brca1 BRCA1"); len(got) != 1 {
		t.Fatalf("matches = %+v", got)
	}
}

func TestVariantExpansion(t *testing.T) {
	m := Build("drug", []string{"beta-blocker"}, DefaultOptions())
	got := m.Find("a beta-blocker and a beta blocker")
	if len(got) != 2 {
		t.Fatalf("hyphen/space variant: %+v", got)
	}
	for _, match := range got {
		if match.Canonical != "beta-blocker" {
			t.Errorf("canonical = %q", match.Canonical)
		}
	}
	// No variants option.
	m2 := Build("drug", []string{"beta-blocker"}, Options{Variants: false, CaseInsensitive: true})
	if got := m2.Find("a beta blocker"); len(got) != 0 {
		t.Fatalf("variants leaked: %+v", got)
	}
}

func TestPluralVariant(t *testing.T) {
	m := Build("disease", []string{"carcinoma"}, DefaultOptions())
	if got := m.Find("multiple carcinomas found"); len(got) != 1 {
		t.Fatalf("plural: %+v", got)
	}
}

func TestLongestMatchWins(t *testing.T) {
	m := Build("disease", []string{"pain", "chronic pain"}, DefaultOptions())
	got := m.Find("suffering from chronic pain today")
	if len(got) != 1 || got[0].Surface != "chronic pain" {
		t.Fatalf("matches = %+v", got)
	}
	// Where the longer pattern is no whole word, the suffix it ends in is.
	got = m.Find("nonchronic pain")
	if len(got) != 1 || got[0].Surface != "pain" {
		t.Fatalf("suffix output: matches = %+v", got)
	}
}

func TestOverlapSuppressed(t *testing.T) {
	m := Build("x", []string{"renal carcinoma", "carcinoma cells"}, DefaultOptions())
	got := m.Find("renal carcinoma cells")
	if len(got) != 1 {
		t.Fatalf("overlapping matches not resolved: %+v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	m := Build("x", nil, DefaultOptions())
	if got := m.Find("anything at all"); len(got) != 0 {
		t.Fatalf("empty dictionary matched: %+v", got)
	}
	m2 := Build("x", []string{"term"}, DefaultOptions())
	if got := m2.Find(""); len(got) != 0 {
		t.Fatalf("empty text matched: %+v", got)
	}
}

func TestStats(t *testing.T) {
	m := Build("gene", []string{"BRCA1", "TP53", "beta-catenin"}, DefaultOptions())
	st := m.Stats()
	if st.Entries != 3 {
		t.Errorf("entries = %d", st.Entries)
	}
	if st.Surfaces < 3 {
		t.Errorf("surfaces = %d", st.Surfaces)
	}
	if st.Nodes < 10 {
		t.Errorf("nodes = %d", st.Nodes)
	}
	if st.Bytes <= 0 {
		t.Error("no memory size")
	}
	if st.BuildTime < 0 {
		t.Error("negative build time")
	}
}

func TestVariantsIncreaseAutomatonSize(t *testing.T) {
	// The memory-vs-recall ablation: expansion must grow the automaton.
	surfaces := []string{"alpha-synuclein", "beta-blocker", "tumor necrosis factor"}
	with := Build("x", surfaces, DefaultOptions())
	without := Build("x", surfaces, Options{Variants: false, CaseInsensitive: true})
	if with.Stats().Nodes <= without.Stats().Nodes {
		t.Errorf("variant automaton %d nodes <= plain %d",
			with.Stats().Nodes, without.Stats().Nodes)
	}
}

func TestLexiconScaleMatching(t *testing.T) {
	// Build from a realistic synthetic dictionary and verify every
	// in-dictionary canonical name is found in a carrier sentence.
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 2000, Drugs: 300, Diseases: 300}, 1.0)
	m := Build("gene", lex.DictionarySurfaces(textgen.Gene), DefaultOptions())
	checked := 0
	for _, e := range lex.ByType(textgen.Gene)[:200] {
		text := fmt.Sprintf("The %s gene was analyzed.", e.Name)
		got := m.Find(text)
		found := false
		for _, match := range got {
			if match.Surface == e.Name {
				found = true
			}
		}
		if !found {
			t.Fatalf("dictionary name %q not found in %q (got %+v)", e.Name, text, got)
		}
		checked++
	}
	if checked != 200 {
		t.Fatalf("checked %d", checked)
	}
}

func TestBuildCostGrowsWithDictionary(t *testing.T) {
	// Startup-cost property behind Fig 5: bigger dictionaries → bigger
	// automata. (Time is machine-dependent; nodes are the stable proxy.)
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 3000, Drugs: 100, Diseases: 100}, 1.0)
	all := lex.DictionarySurfaces(textgen.Gene)
	small := Build("g", all[:500], DefaultOptions())
	big := Build("g", all, DefaultOptions())
	if big.Stats().Nodes <= small.Stats().Nodes*2 {
		t.Errorf("node growth too small: %d vs %d", big.Stats().Nodes, small.Stats().Nodes)
	}
}

func TestFindLinearishScan(t *testing.T) {
	// Find must terminate and be correct on adversarial repetitive input.
	m := Build("x", []string{"aa", "aaa", "aaaa"}, Options{Variants: false, CaseInsensitive: true})
	text := strings.Repeat("a", 200) + " " + strings.Repeat("ab ", 100)
	got := m.Find(text)
	// The 200-a run is one word: only a full-word match of length 200 could
	// match, and no pattern is that long → the run yields nothing.
	for _, match := range got {
		if match.Surface == "" {
			t.Fatal("empty match")
		}
	}
}

// TestFoldChangesLength: lower-casing may change a text's byte length (the
// Kelvin sign folds from 3 bytes to 1, 'İ' from 2 to 1, 'Ⱥ' from 2 to 3,
// an invalid byte from 1 to 3), and matches must still be spans of the
// text as given.
func TestFoldChangesLength(t *testing.T) {
	m := Build("t", []string{"alpha", "kinase", "pi"}, DefaultOptions())
	for _, tc := range []struct{ text, surface string }{
		{"K alpha", "alpha"},
		{"İ alpha", "alpha"},
		{"Ⱥ alpha", "alpha"},
		{"\xff alpha", "alpha"},
		{"\xc3 alpha \xff", "alpha"},
		{"the KINASE", "KINASE"},
		{"a Pİ", "Pİ"},
	} {
		got := m.Find(tc.text)
		start := strings.Index(tc.text, tc.surface)
		want := Match{Start: start, End: start + len(tc.surface), Surface: tc.surface}
		if len(got) != 1 || got[0].Start != want.Start || got[0].End != want.End || got[0].Surface != want.Surface {
			t.Errorf("Find(%q) = %+v, want one match %+v", tc.text, got, want)
		}
	}
}

// TestFindConcurrent shares one Matcher across goroutines, as the executor
// does at DoP > 1, and compares every result with a serial Find; under
// -race it proves scanning never writes to the automaton.
func TestFindConcurrent(t *testing.T) {
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 400, Drugs: 120, Diseases: 120}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	m := Build("gene", lex.DictionarySurfaces(textgen.Gene), DefaultOptions())
	rg := rng.New(21)
	kinds := []textgen.CorpusKind{textgen.Medline, textgen.PMC, textgen.Relevant, textgen.Irrelevant}
	var texts []string
	for i := 0; i < 12; i++ {
		texts = append(texts, gen.Doc(rg, kinds[i%4], fmt.Sprint("c", i)).Text)
	}
	texts = append(texts, "K BRCA1 \xff Ärzte")
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
				got[g][i] = m.Find(texts[i])
			}
		}(g)
	}
	wg.Wait()
	for i, text := range texts {
		serial := m.Find(text)
		for g := range got {
			if !slices.Equal(got[g][i], serial) {
				t.Errorf("goroutine %d, text %d: %v, serially %v", g, i, got[g][i], serial)
			}
		}
	}
}

// TestBytesMatchesHeap holds BuildStats.Bytes to what the heap measures:
// within 10% of the live-heap growth across Build of the default-scale
// gene dictionary.
func TestBytesMatchesHeap(t *testing.T) {
	lex := textgen.NewLexicon(rng.New(1), textgen.DefaultLexiconSizes(), 1.0)
	surfaces := lex.DictionarySurfaces(textgen.Gene)
	Build("warm", surfaces[:1], DefaultOptions()) // the build-time histogram
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := Build("gene", surfaces, DefaultOptions())
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	got := m.Stats().Bytes
	runtime.KeepAlive(m)
	t.Logf("Bytes %d, heap growth %d (%.3f), %d nodes", got, heap, float64(got)/float64(heap), m.Stats().Nodes)
	if float64(got) < 0.9*float64(heap) || float64(got) > 1.1*float64(heap) {
		t.Errorf("Bytes = %d, heap grew by %d", got, heap)
	}
}

// --- The map-per-node automaton, kept as the oracle ---
//
// refMatcher is the matcher the flat DFA must reproduce match for match:
// every state owns a map of byte edges, a byte with no edge follows fail
// links, and non-ASCII text is scanned in a strings.ToLower copy whose
// offsets slice the original. Its Build, scan and FindAppend are the
// predecessor's, verbatim but for the names and the build statistics.

type refNode struct {
	next    map[byte]int32
	fail    int32
	out     int32
	outLen  int32
	outLink int32
}

type refMatcher struct {
	opts  Options
	nodes []refNode
	canon []string
}

func refBuild(surfaces []string, opts Options) *refMatcher {
	m := &refMatcher{opts: opts}
	m.nodes = append(m.nodes, refNode{next: map[byte]int32{}, fail: 0})

	addPattern := func(pat, canonical string) {
		if pat == "" {
			return
		}
		key := pat
		if opts.CaseInsensitive {
			key = strings.ToLower(pat)
		}
		cur := int32(0)
		for i := 0; i < len(key); i++ {
			c := key[i]
			nxt, ok := m.nodes[cur].next[c]
			if !ok {
				nxt = int32(len(m.nodes))
				m.nodes = append(m.nodes, refNode{next: map[byte]int32{}})
				m.nodes[cur].next[c] = nxt
			}
			cur = nxt
		}
		if m.nodes[cur].out == 0 {
			m.canon = append(m.canon, canonical)
			m.nodes[cur].out = int32(len(m.canon))
			m.nodes[cur].outLen = int32(len(key))
		}
	}

	seen := map[string]bool{}
	for _, s := range surfaces {
		for _, v := range expandVariants(s, opts) {
			k := v
			if opts.CaseInsensitive {
				k = strings.ToLower(v)
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			addPattern(v, s)
		}
	}

	queue := make([]int32, 0, len(m.nodes))
	for _, c := range refSortedEdges(&m.nodes[0]) {
		nxt := m.nodes[0].next[c]
		m.nodes[nxt].fail = 0
		queue = append(queue, nxt)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, c := range refSortedEdges(&m.nodes[u]) {
			v := m.nodes[u].next[c]
			queue = append(queue, v)
			f := m.nodes[u].fail
			for {
				if w, ok := m.nodes[f].next[c]; ok && w != v {
					m.nodes[v].fail = w
					break
				}
				if f == 0 {
					m.nodes[v].fail = 0
					break
				}
				f = m.nodes[f].fail
			}
			fv := m.nodes[v].fail
			if m.nodes[fv].out != 0 {
				m.nodes[v].outLink = fv
			} else {
				m.nodes[v].outLink = m.nodes[fv].outLink
			}
		}
	}
	return m
}

func refSortedEdges(n *refNode) []byte {
	cs := make([]byte, 0, len(n.next))
	for c := range n.next {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}

func refLowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

func (m *refMatcher) FindAppend(dst []Match, text string) []Match {
	base := len(dst)
	if m.opts.CaseInsensitive && !asciiOnly(text) {
		search := strings.ToLower(text)
		dst = m.scan(dst, text, search, false)
	} else {
		dst = m.scan(dst, text, text, m.opts.CaseInsensitive)
	}
	n := resolveLongest(dst[base:])
	return dst[:base+n]
}

func (m *refMatcher) scan(dst []Match, text, search string, foldASCII bool) []Match {
	cur := int32(0)
	for i := 0; i < len(search); i++ {
		c := search[i]
		if foldASCII {
			c = refLowerASCII(c)
		}
		for {
			if nxt, ok := m.nodes[cur].next[c]; ok {
				cur = nxt
				break
			}
			if cur == 0 {
				break
			}
			cur = m.nodes[cur].fail
		}
		for n := cur; n != 0; {
			nd := &m.nodes[n]
			if nd.out != 0 {
				end := i + 1
				start := end - int(nd.outLen)
				if (start == 0 || !isWordByte(search[start-1])) &&
					(end == len(search) || !isWordByte(search[end])) {
					dst = append(dst, Match{
						Start: start, End: end,
						Surface:   text[start:end],
						Canonical: m.canon[nd.out-1],
					})
				}
			}
			n = nd.outLink
		}
	}
	return dst
}

// fuzzPool is the dictionary FuzzFind draws from: shared prefixes and
// suffixes, overlaps, mixed case, hyphen/space variants, plurals, digits,
// non-ASCII entries and one whose lower-casing changes its length.
var fuzzPool = []string{
	"alpha", "Alpha", "alphabet", "bet", "beta", "beta-blocker", "beta blocker",
	"gamma", "gam", "a1", "p53", "BRCA1", "x-y", "chronic pain", "pain",
	"pi", "kinase", "MAP kinase", "box", "bench", "Ärzte", "straße", "Kelvin", "é",
}

// foldKeepsWidths reports whether strings.ToLower maps every rune of s to
// as many bytes as it had, so that offsets in the fold are offsets in s.
// Equal total lengths are not enough: one rune may shrink while another
// grows.
func foldKeepsWidths(s string) bool {
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		if utf8.RuneLen(unicode.ToLower(r)) != w {
			return false
		}
		i += w
	}
	return true
}

// FuzzFind holds Find and FindAppend to the map-per-node reference under
// all four Options, on a dictionary drawn from fuzzPool by the bits of
// pick: the same matches wherever the reference's offsets are right, and
// on every input spans that lie in text and slice it to their Surface.
func FuzzFind(f *testing.F) {
	f.Add(uint32(0xffffffff), "Patients with chronic pain took a beta blocker and MAP kinase inhibitors.")
	f.Add(uint32(0x5a5a5a5a), "alphabet ALPHA alpha-beta betas boxes benches p53 BRCA1s a1 x y x-y")
	f.Add(uint32(0xffffffff), "K alpha İ alpha Ⱥ alpha \xff alpha KINASE Ärzte ÄRZTE STRASSE straße Pİ")
	f.Add(uint32(3), "")
	f.Add(uint32(0xffffffff), strings.Repeat("alpha beta ", 200))
	f.Fuzz(func(t *testing.T, pick uint32, text string) {
		var surfaces []string
		for i, s := range fuzzPool {
			if pick&(1<<i) != 0 {
				surfaces = append(surfaces, s)
			}
		}
		for _, opts := range []Options{{}, {Variants: true}, {CaseInsensitive: true}, DefaultOptions()} {
			m, ref := Build("f", surfaces, opts), refBuild(surfaces, opts)
			got := m.Find(text)
			for _, g := range got {
				if g.Start < 0 || g.Start >= g.End || g.End > len(text) || text[g.Start:g.End] != g.Surface {
					t.Fatalf("%+v: Find(%q) returned span %+v outside or unlike the text", opts, text, g)
				}
			}
			appended := m.FindAppend([]Match{{Start: -1}}, text)
			if len(appended) == 0 || appended[0].Start != -1 || !slices.Equal(appended[1:], got) {
				t.Fatalf("%+v: FindAppend(%q) = %v, Find %v", opts, text, appended, got)
			}
			if opts.CaseInsensitive && !foldKeepsWidths(text) {
				continue
			}
			if want := ref.FindAppend(nil, text); !slices.Equal(got, want) {
				t.Fatalf("%+v dict %q: Find(%q) = %v, reference %v", opts, surfaces, text, got, want)
			}
		}
	})
}

func BenchmarkBuildGeneDictionary(b *testing.B) {
	lex := textgen.NewLexicon(rng.New(1), textgen.DefaultLexiconSizes(), 1.0)
	surfaces := lex.DictionarySurfaces(textgen.Gene)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build("gene", surfaces, DefaultOptions())
	}
}

func BenchmarkFind(b *testing.B) {
	lex := textgen.NewLexicon(rng.New(1), textgen.DefaultLexiconSizes(), 1.0)
	m := Build("gene", lex.DictionarySurfaces(textgen.Gene), DefaultOptions())
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	d := gen.Doc(rng.New(9), textgen.Medline, "bench")
	b.SetBytes(int64(len(d.Text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Find(d.Text)
	}
}
