package main

import (
	"fmt"
	"sort"

	"webtextie/internal/core"
	"webtextie/internal/crawler"
	"webtextie/internal/dataflow"
	"webtextie/internal/rng"
	"webtextie/internal/seeds"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// sizes fixes the input sizes of every workload at one scale. The full
// scale is tuned so one repeat takes 1–2 s on a 2-core machine: a run must
// fit several repeats, the warm-up and three set-ups into well under a
// minute (see README.md, "Sizes").
type sizes struct {
	lexicon       textgen.LexiconSizes
	trainDocs     int // CRF and POS training documents, each
	classifierPer int // classifier training documents per class
	seedTermScale int // divides Table 1's term catalogue
	systemCrawl   int // pages the System's own build-time crawl fetches

	focusedFactor int // synthweb.ScaledConfig factor of the crawl_focused web
	focusedPages  int
	focusedList   int // fetch-list size, so the budget spans several generate/fetch/update cycles
	crawlPerHost  int // per-host share of one fetch list, both crawls: lists span many hosts
	fleetFactor   int
	fleetPages    int
	fleetList     int // per-shard fetch-list size, so the budget spans several BSP rounds

	abstracts     int
	fullTextBytes int // volume of PMC-profile full texts
	webDocs       int
	webMeanBytes  int // mean raw size the sampled web pages are held to
}

var scales = map[string]sizes{
	"full": {
		lexicon: textgen.DefaultLexiconSizes(), trainDocs: 300, classifierPer: 400,
		seedTermScale: 50, systemCrawl: 600,
		focusedFactor: 6, focusedPages: 2000, focusedList: 500, crawlPerHost: 2,
		fleetFactor: 36, fleetPages: 1600, fleetList: 200,
		abstracts: 500, fullTextBytes: 250_000, webDocs: 250, webMeanBytes: 4500,
	},
	"tiny": {
		lexicon:   textgen.LexiconSizes{Genes: 500, Drugs: 150, Diseases: 150},
		trainDocs: 40, classifierPer: 150,
		seedTermScale: 100, systemCrawl: 150,
		focusedFactor: 1, focusedPages: 150, focusedList: 50, crawlPerHost: 2,
		fleetFactor: 1, fleetPages: 150, fleetList: 20,
		abstracts: 20, fullTextBytes: 10_000, webDocs: 25, webMeanBytes: 4500,
	},
}

// fleetShards is the fleet's partition count; it is part of the crawl plan
// (outputs are identical across parallelism for a fixed shard count only).
const fleetShards = 4

// env is everything set-up produces: the trained system and one workload's
// generated inputs. Nothing in it changes once built, so repeats share it.
type env struct {
	seed uint64
	sz   sizes
	dop  int
	sys  *core.System

	focusedWeb synthweb.Config
	fleetWeb   synthweb.Config
	fleetSeeds []string

	docs     []dataflow.Record
	docBytes int64
}

// buildSystem trains every component from the seed. Its own corpus crawl
// runs over the crawl_focused web, which makes Set.SeedRun the seed list
// seeds.Generate produces against that web.
func buildSystem(seed uint64, sz sizes) *core.System {
	cfg := core.DefaultConfig()
	cfg.Corpora.Seed = seed
	cfg.Corpora.Web = synthweb.ScaledConfig(seed, sz.focusedFactor)
	cfg.Corpora.Crawl.MaxPages = sz.systemCrawl
	cfg.Corpora.SeedTermScale = sz.seedTermScale
	cfg.Corpora.Lexicon = sz.lexicon
	cfg.Corpora.TrainDocsPerClass = sz.classifierPer
	// The benchmark generates its own documents; keep the System's
	// Medline/PMC corpora at their floor of ten documents each.
	cfg.Corpora.ScaleFactor = 1 << 30
	cfg.CRFTrainDocs = sz.trainDocs
	cfg.POSTrainDocs = sz.trainDocs
	return core.NewSystem(cfg)
}

func setup(w *workload, seed uint64, sz sizes, dop int) (*env, error) {
	e := &env{seed: seed, sz: sz, dop: dop, sys: buildSystem(seed, sz)}
	e.focusedWeb = e.sys.Set.Config().Web
	if w.inputs != nil {
		if err := w.inputs(e); err != nil {
			return nil, fmt.Errorf("%s inputs: %w", w.name, err)
		}
	}
	return e, nil
}

// chaosFaults sets the fault model to the rates the chaos suites calibrate
// (internal/crawler/chaos_test.go chaosWeb).
func chaosFaults(c *synthweb.Config) {
	c.FailureRate = 0.3
	c.DeadHostShare = 0.1
	c.SlowHostShare = 0.2
	c.RateLimitShare = 0.2
	c.TruncateRate = 0.05
}

func (e *env) newGenerator() *textgen.Generator {
	return textgen.NewGenerator(e.seed+1, e.sys.Set.Lexicon, textgen.DefaultProfiles())
}

func fleetInputs(e *env) error {
	e.fleetWeb = synthweb.ScaledConfig(e.seed, e.sz.fleetFactor)
	chaosFaults(&e.fleetWeb)
	web := synthweb.New(e.fleetWeb, e.newGenerator())
	catalog := seeds.BuildCatalog(e.seed+3, e.sys.Set.Lexicon,
		seeds.ScaledSizes(seeds.PaperSizes(), e.sz.seedTermScale))
	e.fleetSeeds = seeds.Generate(seeds.DefaultEngines(e.seed+4, web), catalog).SeedURLs
	if len(e.fleetSeeds) == 0 {
		return fmt.Errorf("seed generation found no URLs")
	}
	return nil
}

// abstractInputs generates the abstracts by count and the full texts by
// volume. A full text's length is log-normal with a relative spread of 40%,
// so five of them — two fifths of the input — would move the bytes per
// document, and with it every per-item metric, by ±10% from seed to seed.
// They are generated until fullTextBytes is reached and the last is cut at
// the sentence end that reaches it.
func abstractInputs(e *env) error {
	r := rng.New(e.seed).Split("bench-documents")
	add := func(id, text string) {
		e.docs = append(e.docs, dataflow.Record{"id": id, "text": text})
		e.docBytes += int64(len(text))
	}
	for i := 0; i < e.sz.abstracts; i++ {
		d := e.sys.Set.Generator.Doc(r, textgen.Medline, fmt.Sprintf("medline-%d", i))
		add(d.ID, d.Text)
	}
	for i, left := 0, e.sz.fullTextBytes; left > 0; i++ {
		d := e.sys.Set.Generator.Doc(r, textgen.PMC, fmt.Sprintf("pmc-%d", i))
		text := d.Text
		if len(text) > left {
			for _, sp := range d.SentSpans {
				if sp[1] >= left {
					text = text[:sp[1]]
					break
				}
			}
		}
		add(d.ID, text)
		left -= len(text)
	}
	return nil
}

// webInputs takes the raw HTML of pages the System's crawl classified, both
// classes in the ratio the crawl found them. Page sizes are heavy-tailed
// (the largest 5% hold a fifth of the bytes), so the mean of a few hundred
// moves by ±5% from seed to seed and every per-item metric with it. To
// give every seed the same volume per document, the largest pages are left
// out until the mean of the rest is webMeanBytes, and the sample is an
// even stride through what remains in size order.
func webInputs(e *env) error {
	crawl := e.sys.Set.Crawl
	pages := append(append([]crawler.CrawledPage(nil), crawl.Relevant...), crawl.IrrelevantPages...)
	sort.Slice(pages, func(i, j int) bool {
		if pages[i].Bytes != pages[j].Bytes {
			return pages[i].Bytes < pages[j].Bytes
		}
		return pages[i].URL < pages[j].URL
	})
	total := 0
	for _, p := range pages {
		total += p.Bytes
	}
	for len(pages) > e.sz.webDocs && total > e.sz.webMeanBytes*len(pages) {
		total -= pages[len(pages)-1].Bytes
		pages = pages[:len(pages)-1]
	}
	if len(pages) < e.sz.webDocs {
		return fmt.Errorf("system crawl classified %d pages, need %d", len(pages), e.sz.webDocs)
	}
	for i := 0; i < e.sz.webDocs; i++ {
		p := pages[i*len(pages)/e.sz.webDocs]
		page, err := e.sys.Set.Web.PageContent(p.URL)
		if err != nil {
			return fmt.Errorf("re-render %s: %w", p.URL, err)
		}
		e.docs = append(e.docs, dataflow.Record{"id": p.URL, "html": string(page.Body)})
		e.docBytes += int64(len(page.Body))
	}
	return nil
}
