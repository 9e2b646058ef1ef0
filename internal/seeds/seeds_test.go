package seeds

import (
	"strings"
	"testing"

	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

func testSetup(t testing.TB) (*textgen.Lexicon, *synthweb.Web) {
	t.Helper()
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 700, Drugs: 200, Diseases: 200}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	cfg := synthweb.DefaultConfig()
	cfg.NumHosts = 120
	return lex, synthweb.New(cfg, gen)
}

func TestPaperSizes(t *testing.T) {
	s := PaperSizes()
	if s.General != 500 || s.Disease != 5000 || s.Drug != 4000 || s.Gene != 6500 {
		t.Errorf("PaperSizes = %+v", s)
	}
	sub := PaperSubsetSizes()
	if sub.General != 166 || sub.Disease != 468 || sub.Drug != 325 || sub.Gene != 246 {
		t.Errorf("PaperSubsetSizes = %+v", sub)
	}
}

func TestScaledSizes(t *testing.T) {
	s := ScaledSizes(PaperSizes(), 10)
	if s.General != 50 || s.Disease != 500 || s.Drug != 400 || s.Gene != 650 {
		t.Errorf("scaled = %+v", s)
	}
	tiny := ScaledSizes(CatalogSizes{1, 1, 1, 1}, 100)
	if tiny.General != 1 {
		t.Error("scaling must floor at 1")
	}
}

func TestBuildCatalog(t *testing.T) {
	lex, _ := testSetup(t)
	c := BuildCatalog(3, lex, CatalogSizes{General: 20, Disease: 50, Drug: 40, Gene: 60})
	if len(c.Terms[General]) != 20 || len(c.Terms[DiseaseSpecific]) != 50 ||
		len(c.Terms[DrugSpecific]) != 40 || len(c.Terms[GeneSpecific]) != 60 {
		t.Errorf("counts: %d %d %d %d", len(c.Terms[General]), len(c.Terms[DiseaseSpecific]),
			len(c.Terms[DrugSpecific]), len(c.Terms[GeneSpecific]))
	}
	if c.Total() != 170 {
		t.Errorf("total = %d", c.Total())
	}
	// Entity terms must come from the lexicon.
	for _, term := range c.Terms[GeneSpecific] {
		if e, ok := lex.Lookup(term); !ok || e.Type != textgen.Gene {
			t.Errorf("gene term %q not a lexicon gene", term)
		}
	}
}

func TestBuildCatalogCapsAtLexicon(t *testing.T) {
	lex, _ := testSetup(t)
	c := BuildCatalog(3, lex, CatalogSizes{Drug: 100000})
	if len(c.Terms[DrugSpecific]) != 200 {
		t.Errorf("drug terms = %d, want capped at 200", len(c.Terms[DrugSpecific]))
	}
}

func TestCatalogDeterministic(t *testing.T) {
	lex, _ := testSetup(t)
	a := BuildCatalog(7, lex, CatalogSizes{General: 10, Disease: 10, Drug: 10, Gene: 10})
	b := BuildCatalog(7, lex, CatalogSizes{General: 10, Disease: 10, Drug: 10, Gene: 10})
	for _, cat := range Categories {
		for i := range a.Terms[cat] {
			if a.Terms[cat][i] != b.Terms[cat][i] {
				t.Fatalf("catalog differs at %v[%d]", cat, i)
			}
		}
	}
}

func TestSearchDeterministicAndCapped(t *testing.T) {
	_, web := testSetup(t)
	e := &Engine{Name: "bing", ResultCap: 10, web: web, seed: 5}
	r1 := e.Search("thymoma", DiseaseSpecific)
	e2 := &Engine{Name: "bing", ResultCap: 10, web: web, seed: 5}
	r2 := e2.Search("thymoma", DiseaseSpecific)
	if len(r1) == 0 || len(r1) > 10 {
		t.Fatalf("results = %d", len(r1))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("search not deterministic")
		}
	}
}

func TestGeneralTermsReturnPortals(t *testing.T) {
	_, web := testSetup(t)
	e := &Engine{Name: "google", ResultCap: 20, web: web, seed: 5}
	for _, u := range e.Search("cancer", General) {
		if !strings.HasSuffix(u, "/p0.html") {
			t.Errorf("general-term result %q is not a portal front page", u)
		}
	}
}

func TestSpecificTermsReachDeepPages(t *testing.T) {
	_, web := testSetup(t)
	e := &Engine{Name: "google", ResultCap: 30, web: web, seed: 5}
	deep := 0
	for _, term := range []string{"alpha", "beta", "gamma", "delta"} {
		for _, u := range e.Search(term, GeneSpecific) {
			if !strings.HasSuffix(u, "/p0.html") {
				deep++
			}
		}
	}
	if deep == 0 {
		t.Error("specific terms returned only portals")
	}
}

func TestHostRestrictedEngine(t *testing.T) {
	_, web := testSetup(t)
	e := &Engine{Name: "arxiv", ResultCap: 10, HostRestrict: "arxiv.org", web: web, seed: 5}
	res := e.Search("BRCA", GeneSpecific)
	if len(res) == 0 {
		t.Fatal("no results from restricted engine")
	}
	for _, u := range res {
		h, _, _ := synthweb.SplitURL(u)
		if h != "arxiv.org" {
			t.Errorf("restricted engine returned %q", u)
		}
	}
}

func TestQueryBudget(t *testing.T) {
	_, web := testSetup(t)
	e := &Engine{Name: "bing", ResultCap: 5, QueryBudget: 2, web: web, seed: 5}
	if len(e.Search("a", General)) == 0 || len(e.Search("b", General)) == 0 {
		t.Fatal("budgeted queries failed")
	}
	if res := e.Search("c", General); res != nil {
		t.Error("query over budget returned results")
	}
	if e.queries != 2 {
		t.Errorf("queries = %d", e.queries)
	}
}

func TestGenerateMergesAndDedups(t *testing.T) {
	lex, web := testSetup(t)
	catalog := BuildCatalog(3, lex, CatalogSizes{General: 5, Disease: 10, Drug: 10, Gene: 10})
	run := Generate(DefaultEngines(5, web), catalog)
	if len(run.SeedURLs) == 0 {
		t.Fatal("no seeds")
	}
	seen := map[string]bool{}
	for _, u := range run.SeedURLs {
		if seen[u] {
			t.Fatalf("duplicate seed %q", u)
		}
		seen[u] = true
	}
	if run.QueriesIssued != 35*5 {
		t.Errorf("queries = %d, want %d", run.QueriesIssued, 35*5)
	}
}

func TestLargerCatalogYieldsMoreSeeds(t *testing.T) {
	// §2.2: the subset run produced 45,227 seeds, the full run 485,462.
	lex, web := testSetup(t)
	small := Generate(DefaultEngines(5, web),
		BuildCatalog(3, lex, CatalogSizes{General: 3, Disease: 5, Drug: 5, Gene: 5}))
	large := Generate(DefaultEngines(5, web),
		BuildCatalog(3, lex, CatalogSizes{General: 30, Disease: 100, Drug: 100, Gene: 200}))
	if len(large.SeedURLs) <= len(small.SeedURLs) {
		t.Errorf("large run %d seeds <= small run %d", len(large.SeedURLs), len(small.SeedURLs))
	}
}

func TestCategoryString(t *testing.T) {
	want := map[Category]string{
		General: "general terms", DiseaseSpecific: "disease-specific",
		DrugSpecific: "drug-specific", GeneSpecific: "gene-specific",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}
