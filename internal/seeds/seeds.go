// Package seeds implements seed-URL generation (§2.2): keyword catalogues
// in the four categories of Table 1 (general / disease-specific /
// drug-specific / gene-specific) and five simulated search-engine APIs
// (Bing, Google, Arxiv, Nature, Nature blogs) with per-query result caps —
// the construction that forced the authors to issue thousands of queries
// against multiple engines.
//
// The engines reproduce the two §2.2 failure mechanisms:
//
//  1. general terms return "authoritative" portal front pages, which the
//     relevance classifier rejects, killing those crawl branches; and
//  2. the publisher engines (Arxiv, Nature) "return results only for
//     content hosted there" (§4.1).
package seeds

import (
	"fmt"
	"sort"

	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/trace"
	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// Category is one of the Table 1 keyword categories.
type Category int

const (
	// General covers broad biomedical terms ("cancer", "chronic pain").
	General Category = iota
	// DiseaseSpecific covers disease names ("thymoma", "nausea").
	DiseaseSpecific
	// DrugSpecific covers drug names ("GAD-67", "Aspirin").
	DrugSpecific
	// GeneSpecific covers gene names ("BRCA", "Cactin").
	GeneSpecific
)

// Categories lists all categories in Table 1 order.
var Categories = []Category{General, DiseaseSpecific, DrugSpecific, GeneSpecific}

// String names the category as in Table 1.
func (c Category) String() string {
	switch c {
	case General:
		return "general terms"
	case DiseaseSpecific:
		return "disease-specific"
	case DrugSpecific:
		return "drug-specific"
	case GeneSpecific:
		return "gene-specific"
	}
	return "unknown"
}

// CatalogSizes gives the number of terms per category. Paper values
// (Table 1): general 500 (166), disease 5000 (468), drug 4000 (325),
// gene 6500 (246) — first-crawl subset sizes in brackets.
type CatalogSizes struct {
	General, Disease, Drug, Gene int
}

// PaperSizes returns Table 1's full catalogue sizes.
func PaperSizes() CatalogSizes { return CatalogSizes{500, 5000, 4000, 6500} }

// PaperSubsetSizes returns Table 1's bracketed first-crawl subset sizes.
func PaperSubsetSizes() CatalogSizes { return CatalogSizes{166, 468, 325, 246} }

// ScaledSizes returns the catalogue sizes divided by factor (min 1 each).
func ScaledSizes(s CatalogSizes, factor int) CatalogSizes {
	d := func(n int) int {
		n /= factor
		if n < 1 {
			n = 1
		}
		return n
	}
	return CatalogSizes{d(s.General), d(s.Disease), d(s.Drug), d(s.Gene)}
}

// Catalog holds the search-term lists per category.
type Catalog struct {
	Terms map[Category][]string
}

// generalTermPool seeds the "general biomedical terms" category (the paper
// drew these from the National Cancer Institute and Genetic Alliance
// glossaries).
var generalTermPool = []string{
	"cancer", "chronic pain", "tumor", "chemotherapy", "radiation therapy",
	"biopsy", "metastasis", "oncology", "diagnosis", "prognosis", "remission",
	"clinical trial", "immune system", "genetics", "heredity", "mutation",
	"screening", "vaccine", "antibody", "benign", "malignant", "carcinogen",
	"pathology", "symptom", "syndrome", "therapy", "treatment", "prevention",
	"risk factor", "side effect", "gene therapy", "stem cell", "biomarker",
	"epidemiology", "infection", "inflammation", "autoimmune", "hormone",
	"enzyme", "protein", "dna", "rna", "chromosome", "cell division",
	"public health", "palliative care", "transplant", "dosage", "relapse",
	"survival rate",
}

// BuildCatalog draws terms from the lexicon (entity categories) and the
// general pool, up to the requested sizes. Terms are deterministic given
// the seed.
func BuildCatalog(seed uint64, lex *textgen.Lexicon, sizes CatalogSizes) *Catalog {
	r := rng.New(seed)
	c := &Catalog{Terms: map[Category][]string{}}

	pickGeneral := func(n int) []string {
		out := make([]string, 0, n)
		perm := r.Perm(len(generalTermPool))
		for i := 0; i < n; i++ {
			base := generalTermPool[perm[i%len(perm)]]
			if i >= len(perm) {
				base = fmt.Sprintf("%s %d", base, i)
			}
			out = append(out, base)
		}
		return out
	}
	pickEntities := func(t textgen.EntityType, n int) []string {
		entries := lex.ByType(t)
		out := make([]string, 0, n)
		perm := r.Perm(len(entries))
		for i := 0; i < n && i < len(entries); i++ {
			out = append(out, entries[perm[i]].Name)
		}
		return out
	}
	c.Terms[General] = pickGeneral(sizes.General)
	c.Terms[DiseaseSpecific] = pickEntities(textgen.Disease, sizes.Disease)
	c.Terms[DrugSpecific] = pickEntities(textgen.Drug, sizes.Drug)
	c.Terms[GeneSpecific] = pickEntities(textgen.Gene, sizes.Gene)
	return c
}

// Total returns the number of terms across all categories.
func (c *Catalog) Total() int {
	n := 0
	for _, ts := range c.Terms {
		n += len(ts)
	}
	return n
}

// Engine is a simulated search-engine API.
type Engine struct {
	// Name identifies the engine ("bing", "arxiv", ...).
	Name string
	// ResultCap is the maximum number of results per query (all real
	// engine APIs "limit the number of returned results", §2.2).
	ResultCap int
	// QueryBudget caps the number of queries; 0 means unlimited.
	QueryBudget int
	// HostRestrict, if non-empty, limits results to this host (publisher
	// engines like Arxiv and Nature).
	HostRestrict string

	web     *synthweb.Web
	seed    uint64
	queries int
}

// DefaultEngines returns the five engines of §2.2 bound to a web.
func DefaultEngines(seed uint64, web *synthweb.Web) []*Engine {
	return []*Engine{
		{Name: "bing", ResultCap: 30, QueryBudget: 20000, web: web, seed: seed},
		{Name: "google", ResultCap: 30, QueryBudget: 20000, web: web, seed: seed},
		{Name: "arxiv", ResultCap: 20, QueryBudget: 20000, HostRestrict: "arxiv.org", web: web, seed: seed},
		{Name: "nature", ResultCap: 20, QueryBudget: 20000, HostRestrict: "blogs.nature.com", web: web, seed: seed},
		{Name: "natureblogs", ResultCap: 10, QueryBudget: 20000, HostRestrict: "blogs.nature.com", web: web, seed: seed},
	}
}

// Search returns up to ResultCap URLs for a term. General-category terms
// yield authoritative portal pages; specific terms yield deep content
// pages on topical hosts. Results are deterministic per (engine, term).
func (e *Engine) Search(term string, cat Category) []string {
	if e.QueryBudget > 0 && e.queries >= e.QueryBudget {
		return nil
	}
	e.queries++
	r := rng.New(e.seed).Split("engine/" + e.Name + "/" + term)
	var out []string
	seen := map[string]bool{}

	if e.HostRestrict != "" {
		h, ok := e.web.HostByName(e.HostRestrict)
		if !ok {
			return nil
		}
		for len(out) < e.ResultCap && len(out) < h.Pages {
			u := synthweb.PageURL(h.Name, r.Intn(h.Pages))
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
		return out
	}

	if cat == General {
		// Authoritative results: portal front pages of topical hosts.
		hosts := e.web.Hosts
		tries := 0
		for len(out) < e.ResultCap && tries < e.ResultCap*10 {
			tries++
			h := hosts[r.Intn(len(hosts))]
			if !h.Biomed && r.Bool(0.8) {
				continue
			}
			u := synthweb.PageURL(h.Name, 0)
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
		return out
	}

	// Specific terms resolve to the term's few "home" hosts: a rare gene
	// or drug name is mentioned on a handful of sites, not everywhere.
	// The home set is a function of the term alone, so different engines
	// return different pages of the SAME hosts — issuing more queries only
	// widens coverage through more terms, which is why the paper needed
	// 15,000 queries for a sustainable seed list (§2.2).
	homes := e.termHomeHosts(term)
	for _, h := range homes {
		perHost := e.ResultCap / len(homes)
		if perHost < 1 {
			perHost = 1
		}
		tries := 0
		added := 0
		for added < perHost && tries < perHost*8 && len(out) < e.ResultCap {
			tries++
			u := synthweb.PageURL(h.Name, r.Intn(h.Pages))
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
				added++
			}
		}
	}
	return out
}

// termHomeHosts derives the 2-4 biomedical hosts that "cover" a specific
// term, deterministically from the term itself.
func (e *Engine) termHomeHosts(term string) []*synthweb.Host {
	r := rng.New(e.seed).Split("term-home/" + term)
	var biomed []*synthweb.Host
	for _, h := range e.web.Hosts {
		if h.Biomed {
			biomed = append(biomed, h)
		}
	}
	if len(biomed) == 0 {
		return nil
	}
	k := 2 + r.Intn(3)
	out := make([]*synthweb.Host, 0, k)
	seen := map[string]bool{}
	for len(out) < k {
		h := biomed[r.Intn(len(biomed))]
		if !seen[h.Name] {
			seen[h.Name] = true
			out = append(out, h)
		}
		if len(out) >= len(biomed) {
			break
		}
	}
	return out
}

// Run queries every engine with every term of the catalogue and merges the
// results into a deduplicated, sorted seed list (the §2.2 procedure).
type Run struct {
	// SeedURLs is the merged seed list.
	SeedURLs []string
	// QueriesIssued is the total number of engine queries.
	QueriesIssued int
}

// Generate executes a full seed-generation run.
func Generate(engines []*Engine, catalog *Catalog) Run {
	return GenerateLogged(engines, catalog, nil)
}

// GenerateLogged is Generate with an event log: one record per category
// (terms queried, URLs contributed) and a final summary, timestamped on
// the query-count logical clock so exports are deterministic per seed.
func GenerateLogged(engines []*Engine, catalog *Catalog, sink *evlog.Sink) Run {
	lg := sink.Logger("seeds.engine")
	seen := map[string]bool{}
	var run Run
	for _, cat := range Categories {
		before := len(run.SeedURLs)
		for _, term := range catalog.Terms[cat] {
			for _, e := range engines {
				res := e.Search(term, cat)
				run.QueriesIssued++
				for _, u := range res {
					if !seen[u] {
						seen[u] = true
						run.SeedURLs = append(run.SeedURLs, u)
					}
				}
			}
		}
		lg.Info("seeds.category", int64(run.QueriesIssued),
			trace.String("category", cat.String()),
			trace.Int("terms", int64(len(catalog.Terms[cat]))),
			trace.Int("urls", int64(len(run.SeedURLs)-before)))
	}
	if len(run.SeedURLs) == 0 {
		lg.Warn("seeds.empty", int64(run.QueriesIssued),
			trace.Int("queries", int64(run.QueriesIssued)))
	}
	lg.Info("seeds.done", int64(run.QueriesIssued),
		trace.Int("queries", int64(run.QueriesIssued)),
		trace.Int("urls", int64(len(run.SeedURLs))))
	sort.Strings(run.SeedURLs)
	return run
}
