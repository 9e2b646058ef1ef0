package crawler

import (
	"fmt"
	"strings"
	"testing"

	"webtextie/internal/classify"
	"webtextie/internal/rng"
	"webtextie/internal/seeds"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// pipeline bundles a small but complete crawl environment.
type pipeline struct {
	lex *textgen.Lexicon
	gen *textgen.Generator
	web *synthweb.Web
	clf *classify.NaiveBayes
}

// newPipeline builds a crawl environment over a clean web of the given
// size; chaosPipeline over a web whose faults mutate, when set, injects.
func newPipeline(t testing.TB, hosts int) *pipeline { return chaosPipeline(t, hosts, nil) }

func chaosPipeline(t testing.TB, hosts int, mutate func(*synthweb.Config)) *pipeline {
	t.Helper()
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 500, Drugs: 150, Diseases: 150}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	cfg := synthweb.DefaultConfig()
	cfg.NumHosts = hosts
	if mutate != nil {
		mutate(&cfg)
	}
	web := synthweb.New(cfg, gen)

	// Train the relevance classifier as in §2: Medline abstracts vs random
	// English web documents.
	clf := classify.New()
	r := rng.New(3)
	for i := 0; i < 300; i++ {
		clf.Learn(gen.Doc(r, textgen.Medline, fmt.Sprint("m", i)).Text, classify.Relevant)
		clf.Learn(gen.Doc(r, textgen.Irrelevant, fmt.Sprint("w", i)).Text, classify.Irrelevant)
	}
	return &pipeline{lex: lex, gen: gen, web: web, clf: clf}
}

func (p *pipeline) seedRun(t testing.TB, sizes seeds.CatalogSizes) []string {
	t.Helper()
	catalog := seeds.BuildCatalog(4, p.lex, sizes)
	return seeds.Generate(seeds.DefaultEngines(5, p.web), catalog).SeedURLs
}

func defaultSeeds(t testing.TB, p *pipeline) []string {
	return p.seedRun(t, seeds.CatalogSizes{General: 10, Disease: 60, Drug: 40, Gene: 80})
}

func TestCrawlProducesBothCorpora(t *testing.T) {
	p := newPipeline(t, 100)
	cfg := DefaultConfig()
	cfg.MaxPages = 600
	res := New(cfg, p.web, p.clf).Run(defaultSeeds(t, p))
	if res.Stats.Fetched == 0 {
		t.Fatal("nothing fetched")
	}
	if len(res.Relevant) == 0 {
		t.Fatal("no relevant pages")
	}
	if len(res.IrrelevantPages) == 0 {
		t.Fatal("no irrelevant pages")
	}
	if res.Stats.Relevant != len(res.Relevant) || res.Stats.Irrelevant != len(res.IrrelevantPages) {
		t.Error("stats and corpora sizes disagree")
	}
}

func TestFiltersFire(t *testing.T) {
	p := newPipeline(t, 100)
	cfg := DefaultConfig()
	cfg.MaxPages = 800
	res := New(cfg, p.web, p.clf).Run(defaultSeeds(t, p))
	s := res.Stats
	if s.FilteredMIME == 0 {
		t.Error("MIME filter never fired")
	}
	if s.FilteredLang == 0 {
		t.Error("language filter never fired")
	}
	if s.FilteredLength == 0 {
		t.Error("length filter never fired")
	}
	// §4.1 rates: MIME 9.5%, language 14%, length 17% of fetched docs.
	fm := float64(s.FilteredMIME) / float64(s.Fetched)
	if fm < 0.01 || fm > 0.30 {
		t.Errorf("MIME filter rate = %.3f", fm)
	}
}

func TestHarvestRateInBand(t *testing.T) {
	p := newPipeline(t, 100)
	cfg := DefaultConfig()
	cfg.MaxPages = 1000
	res := New(cfg, p.web, p.clf).Run(defaultSeeds(t, p))
	hr := res.Stats.HarvestRate()
	// Paper: 38%; published focused crawlers: 25-45%. Accept a wide band;
	// the shape requirement is "well above random, well below perfect".
	if hr < 0.15 || hr > 0.85 {
		t.Errorf("harvest rate = %.3f, want within (0.15, 0.85)", hr)
	}
	if res.Stats.HarvestRateDocs() <= 0 {
		t.Error("doc harvest rate = 0")
	}
}

func TestSmallSeedListDiesLargeSurvives(t *testing.T) {
	// §2.2: the 45K-seed crawl "terminated quickly due to an emptied
	// CrawlDB"; the 485K-seed crawl sustained a 1 TB corpus.
	p := newPipeline(t, 100)
	smallSeeds := p.seedRun(t, seeds.CatalogSizes{General: 2, Disease: 1, Drug: 1, Gene: 1})
	largeSeeds := p.seedRun(t, seeds.CatalogSizes{General: 10, Disease: 80, Drug: 60, Gene: 120})

	cfg := DefaultConfig()
	cfg.MaxPagesPerHost = 60
	small := New(cfg, p.web, p.clf).Run(smallSeeds)
	large := New(cfg, p.web, p.clf).Run(largeSeeds)
	if !small.Stats.FrontierEmptied {
		t.Error("small-seed crawl did not exhaust its frontier")
	}
	if large.Stats.Relevant <= 2*small.Stats.Relevant {
		t.Errorf("large crawl (%d relevant) not substantially bigger than small (%d)",
			large.Stats.Relevant, small.Stats.Relevant)
	}
}

func TestTrapGuardBoundsPerHost(t *testing.T) {
	p := newPipeline(t, 100)
	cfg := DefaultConfig()
	cfg.MaxPagesPerHost = 50
	cfg.MaxPages = 800
	c := New(cfg, p.web, p.clf)
	res := c.Run(defaultSeeds(t, p))
	perHost := map[string]int{}
	count := func(pages []CrawledPage) {
		for _, pg := range pages {
			h, _, _ := synthweb.SplitURL(pg.URL)
			perHost[h]++
		}
	}
	count(res.Relevant)
	count(res.IrrelevantPages)
	for h, n := range perHost {
		// Injection happens before the guard increments, so allow the cap
		// plus one generate-cycle of slack.
		if n > cfg.MaxPagesPerHost+cfg.MaxPerHostPerCycle {
			t.Errorf("host %s got %d pages, cap %d", h, n, cfg.MaxPagesPerHost)
		}
	}
}

func TestTrapURLsNeverDominat(t *testing.T) {
	p := newPipeline(t, 100)
	cfg := DefaultConfig()
	cfg.MaxPages = 600
	res := New(cfg, p.web, p.clf).Run(defaultSeeds(t, p))
	traps := 0
	for _, pg := range append(res.Relevant, res.IrrelevantPages...) {
		if strings.Contains(pg.URL, "/trap/") {
			traps++
		}
	}
	if traps > res.Stats.Fetched/5 {
		t.Errorf("trap pages = %d of %d fetched: trap guard ineffective", traps, res.Stats.Fetched)
	}
}

func TestRobotsRespected(t *testing.T) {
	p := newPipeline(t, 100)
	// Find a host with a disallowed trap.
	var guarded *synthweb.Host
	for _, h := range p.web.Hosts {
		if h.DisallowTrap {
			guarded = h
			break
		}
	}
	if guarded == nil {
		t.Skip("no robots-guarded host")
	}
	cfg := DefaultConfig()
	cfg.MaxPages = 200
	c := New(cfg, p.web, p.clf)
	res := c.Run([]string{synthweb.TrapURL(guarded.Name, 0), synthweb.PageURL(guarded.Name, 1)})
	for _, pg := range append(res.Relevant, res.IrrelevantPages...) {
		if strings.Contains(pg.URL, guarded.Name+"/trap/") {
			t.Fatalf("robots-disallowed URL fetched: %s", pg.URL)
		}
	}
	if res.Stats.RobotsBlocked == 0 {
		t.Error("RobotsBlocked = 0")
	}
}

func TestTunnellingIncreasesYield(t *testing.T) {
	// §5: "Another approach would be to also follow links from pages
	// classified as irrelevant, but only with a small margin."
	p := newPipeline(t, 100)
	seedList := p.seedRun(t, seeds.CatalogSizes{General: 6, Disease: 4, Drug: 3, Gene: 5})

	cfg1 := DefaultConfig()
	cfg1.Tunnelling = 1
	cfg1.MaxPagesPerHost = 40
	r1 := New(cfg1, p.web, p.clf).Run(seedList)

	cfg2 := cfg1
	cfg2.Tunnelling = 2
	r2 := New(cfg2, p.web, p.clf).Run(seedList)

	if r2.Stats.Relevant < r1.Stats.Relevant {
		t.Errorf("tunnelling reduced yield: %d vs %d", r2.Stats.Relevant, r1.Stats.Relevant)
	}
	if r2.Stats.Fetched <= r1.Stats.Fetched {
		t.Errorf("tunnelling did not explore more: %d vs %d fetched",
			r2.Stats.Fetched, r1.Stats.Fetched)
	}
}

func TestClassifierQualityOnCrawlSample(t *testing.T) {
	// §4.1: on a 200-page crawl sample, estimated P=94% / R=90%. We check
	// the same regime against generator gold labels.
	p := newPipeline(t, 100)
	cfg := DefaultConfig()
	cfg.MaxPages = 800
	res := New(cfg, p.web, p.clf).Run(defaultSeeds(t, p))
	var q classify.Quality
	for _, pg := range res.Relevant {
		if pg.GoldRelevant {
			q.TP++
		} else {
			q.FP++
		}
	}
	for _, pg := range res.IrrelevantPages {
		if pg.GoldRelevant {
			q.FN++
		} else {
			q.TN++
		}
	}
	if q.Precision() < 0.80 {
		t.Errorf("crawl-sample precision = %.3f (paper: 0.94)", q.Precision())
	}
	if q.Recall() < 0.70 {
		t.Errorf("crawl-sample recall = %.3f (paper: 0.90)", q.Recall())
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	p := newPipeline(t, 60)
	cfg := DefaultConfig()
	cfg.MaxPages = 300
	res := New(cfg, p.web, p.clf).Run(defaultSeeds(t, p))
	if res.Stats.VirtualMs <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	dps := res.Stats.DocsPerSecond()
	if dps <= 0 || dps > 1000 {
		t.Errorf("docs/s = %.2f", dps)
	}
}

func TestLinkDBPopulated(t *testing.T) {
	p := newPipeline(t, 60)
	cfg := DefaultConfig()
	cfg.MaxPages = 400
	res := New(cfg, p.web, p.clf).Run(defaultSeeds(t, p))
	if res.LinkDB.Edges() == 0 {
		t.Fatal("LinkDB empty")
	}
	if len(res.LinkDB.Pages()) == 0 {
		t.Fatal("LinkDB has no pages")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Relevant: 3, Irrelevant: 1, RelevantBytes: 300, IrrelevantBytes: 700,
		Fetched: 10, VirtualMs: 2000}
	if s.Classified() != 4 {
		t.Errorf("Classified = %d", s.Classified())
	}
	if s.HarvestRate() != 0.3 {
		t.Errorf("HarvestRate = %v", s.HarvestRate())
	}
	if s.HarvestRateDocs() != 0.75 {
		t.Errorf("HarvestRateDocs = %v", s.HarvestRateDocs())
	}
	if s.DocsPerSecond() != 5 {
		t.Errorf("DocsPerSecond = %v", s.DocsPerSecond())
	}
	var zero Stats
	if zero.HarvestRate() != 0 || zero.DocsPerSecond() != 0 || zero.HarvestRateDocs() != 0 {
		t.Error("zero stats not handled")
	}
}

func BenchmarkCrawl500Pages(b *testing.B) {
	p := newPipeline(b, 80)
	seedList := defaultSeeds(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.MaxPages = 500
		_ = New(cfg, p.web, p.clf).Run(seedList)
	}
}
