// Package corpora constructs the four text collections of §4.3 (Table 3):
//
//   - Relevant:   crawled pages classified as biomedical (373 GB, 4.2 M docs)
//   - Irrelevant: crawled pages classified as off-domain (607 GB, 17.7 M docs)
//   - Medline:    21.7 M scientific abstracts (21 GB)
//   - PMC:        250,440 open-access full texts (19 GB)
//
// The web corpora come out of an actual focused crawl of the synthetic web;
// Medline and PMC are generated directly from their linguistic profiles.
// Everything is scaled by a configurable factor (default 1:10,000 by
// document count) and Table 3 reports both measured and rescaled numbers.
//
// The package also provides the chunked document store used by the §4.2
// war-story workaround ("we splitted the crawled data into chunks of 50 GB
// and executed the different flows separately on these chunks").
package corpora

import (
	"fmt"

	"webtextie/internal/classify"
	"webtextie/internal/crawler"
	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/rng"
	"webtextie/internal/seeds"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// Document is one corpus document ready for analysis.
type Document struct {
	// ID is a corpus-unique identifier (URL for web documents).
	ID string
	// Text is the analysis text (extracted net text for web pages).
	Text string
	// Gold carries generation ground truth (nil for noise pages).
	Gold *textgen.Doc
	// RawBytes is the size of the original artifact (HTML page size for
	// web documents, text size otherwise) — the unit of Table 3's GB.
	RawBytes int
	// GoldRelevant is the true topical label (web documents only).
	GoldRelevant bool
}

// Corpus is one of the four collections.
type Corpus struct {
	Kind textgen.CorpusKind
	Docs []Document
}

// NumDocs returns the document count.
func (c *Corpus) NumDocs() int { return len(c.Docs) }

// RawBytes returns the total raw size.
func (c *Corpus) RawBytes() int64 {
	var t int64
	for _, d := range c.Docs {
		t += int64(d.RawBytes)
	}
	return t
}

// MeanChars returns the mean analysis-text length (Table 3's "mean no. of
// chars" for the generated corpora; for web corpora the paper reports raw
// page bytes, RawBytes over NumDocs).
func (c *Corpus) MeanChars() float64 {
	if len(c.Docs) == 0 {
		return 0
	}
	var t int64
	for _, d := range c.Docs {
		t += int64(len(d.Text))
	}
	return float64(t) / float64(len(c.Docs))
}

// BuildConfig controls corpus construction.
type BuildConfig struct {
	// Seed drives all generation.
	Seed uint64
	// ScaleFactor divides the paper's document counts (default 10,000).
	ScaleFactor int
	// Web configures the synthetic web for the crawl-derived corpora.
	Web synthweb.Config
	// Crawl configures the focused crawler.
	Crawl crawler.Config
	// SeedTermScale divides Table 1's term-catalogue sizes (default 10).
	SeedTermScale int
	// Lexicon sizes the entity dictionaries.
	Lexicon textgen.LexiconSizes
	// DictCoverage is the in-dictionary fraction of lexicon entries.
	DictCoverage float64
	// TrainDocsPerClass sizes the crawler classifier's training set.
	TrainDocsPerClass int
	// Log, when set, receives the event log of corpus construction: the
	// seed-generation run and the focused crawl both report into it.
	Log *evlog.Sink
}

// DefaultBuildConfig returns the standard 1:10,000 setup.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{
		Seed:              1,
		ScaleFactor:       10000,
		Web:               synthweb.DefaultConfig(),
		Crawl:             crawler.DefaultConfig(),
		SeedTermScale:     10,
		Lexicon:           textgen.DefaultLexiconSizes(),
		DictCoverage:      0.75,
		TrainDocsPerClass: 400,
	}
}

// Paper-reported corpus sizes (Table 3).
var paperDocCounts = map[textgen.CorpusKind]int{
	textgen.Relevant:   4233523,
	textgen.Irrelevant: 17704365,
	textgen.Medline:    21686397,
	textgen.PMC:        250440,
}

// Set bundles the four corpora with the artifacts of their construction.
type Set struct {
	ByKind map[textgen.CorpusKind]*Corpus
	// Lexicon and Generator are the shared text resources.
	Lexicon   *textgen.Lexicon
	Generator *textgen.Generator
	// Web is the synthetic web the crawl ran against.
	Web *synthweb.Web
	// Crawl is the focused-crawl result behind the web corpora.
	Crawl *crawler.Result
	// Classifier is the trained relevance model.
	Classifier *classify.NaiveBayes
	// SeedRun is the seed-generation run that initialized the crawl.
	SeedRun seeds.Run
	cfg     BuildConfig
}

// Corpus returns one corpus of the set.
func (s *Set) Corpus(kind textgen.CorpusKind) *Corpus { return s.ByKind[kind] }

// Config returns the build configuration.
func (s *Set) Config() BuildConfig { return s.cfg }

// TrainClassifier builds the §2 relevance classifier: Medline abstracts as
// positives, random English web documents as negatives.
func TrainClassifier(gen *textgen.Generator, seed uint64, perClass int) *classify.NaiveBayes {
	clf := classify.New()
	r := rng.New(seed).Split("classifier-training")
	for i := 0; i < perClass; i++ {
		clf.Learn(gen.Doc(r, textgen.Medline, fmt.Sprint("train-m", i)).Text, classify.Relevant)
		clf.Learn(gen.Doc(r, textgen.Irrelevant, fmt.Sprint("train-w", i)).Text, classify.Irrelevant)
	}
	return clf
}

// Build constructs the full corpus set: trains the classifier, generates
// seeds, runs the focused crawl, and synthesizes Medline and PMC.
func Build(cfg BuildConfig) *Set {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = 10000
	}
	if cfg.SeedTermScale <= 0 {
		cfg.SeedTermScale = 10
	}
	lex := textgen.NewLexicon(rng.New(cfg.Seed).Split("lexicon"), cfg.Lexicon, cfg.DictCoverage)
	gen := textgen.NewGenerator(cfg.Seed+1, lex, textgen.DefaultProfiles())
	web := synthweb.New(cfg.Web, gen)
	clf := TrainClassifier(gen, cfg.Seed+2, cfg.TrainDocsPerClass)

	// Seed generation (§2.2, full catalogue).
	catalog := seeds.BuildCatalog(cfg.Seed+3, lex,
		seeds.ScaledSizes(seeds.PaperSizes(), cfg.SeedTermScale))
	run := seeds.GenerateLogged(seeds.DefaultEngines(cfg.Seed+4, web), catalog, cfg.Log)

	// Focused crawl, reporting into the process metric registry (the
	// cmds' -metrics flag dumps it at exit).
	cr := crawler.New(cfg.Crawl, web, clf).WithMetrics(obs.Default())
	if cfg.Log != nil {
		cr.WithLog(cfg.Log)
	}
	crawlRes := cr.Run(run.SeedURLs)

	set := &Set{
		ByKind:     map[textgen.CorpusKind]*Corpus{},
		Lexicon:    lex,
		Generator:  gen,
		Web:        web,
		Crawl:      crawlRes,
		Classifier: clf,
		SeedRun:    run,
		cfg:        cfg,
	}

	toDocs := func(pages []crawler.CrawledPage) []Document {
		out := make([]Document, 0, len(pages))
		for _, p := range pages {
			out = append(out, Document{
				ID: p.URL, Text: p.NetText, Gold: p.Gold,
				RawBytes: p.Bytes, GoldRelevant: p.GoldRelevant,
			})
		}
		return out
	}
	set.ByKind[textgen.Relevant] = &Corpus{Kind: textgen.Relevant, Docs: toDocs(crawlRes.Relevant)}
	set.ByKind[textgen.Irrelevant] = &Corpus{Kind: textgen.Irrelevant, Docs: toDocs(crawlRes.IrrelevantPages)}

	// Medline and PMC: generated at 1:ScaleFactor of Table 3's counts.
	r := rng.New(cfg.Seed).Split("corpora")
	for _, kind := range []textgen.CorpusKind{textgen.Medline, textgen.PMC} {
		n := paperDocCounts[kind] / cfg.ScaleFactor
		if n < 10 {
			n = 10
		}
		c := &Corpus{Kind: kind}
		for i := 0; i < n; i++ {
			d := gen.Doc(r, kind, fmt.Sprintf("%s-%d", kind, i))
			c.Docs = append(c.Docs, Document{
				ID: d.ID, Text: d.Text, Gold: d,
				RawBytes: len(d.Text), GoldRelevant: true,
			})
		}
		set.ByKind[kind] = c
	}
	return set
}

// Table3Row is one row of the reproduced Table 3.
type Table3Row struct {
	Corpus textgen.CorpusKind
	// Measured values from this build.
	Docs      int
	RawBytes  int64
	MeanChars float64
	// Paper-reported values.
	PaperDocs      int
	PaperSizeGB    float64
	PaperMeanChars float64
}

var paperTable3 = map[textgen.CorpusKind]struct {
	sizeGB    float64
	meanChars float64
}{
	textgen.Relevant:   {373, 88384},
	textgen.Irrelevant: {607, 37625},
	textgen.Medline:    {21, 865},
	textgen.PMC:        {19, 55704},
}

// Table3 reproduces Table 3 (measured vs paper).
func (s *Set) Table3() []Table3Row {
	var rows []Table3Row
	for _, kind := range textgen.CorpusKinds {
		c := s.ByKind[kind]
		p := paperTable3[kind]
		rows = append(rows, Table3Row{
			Corpus: kind, Docs: c.NumDocs(), RawBytes: c.RawBytes(),
			MeanChars:      c.MeanChars(),
			PaperDocs:      paperDocCounts[kind],
			PaperSizeGB:    p.sizeGB,
			PaperMeanChars: p.meanChars,
		})
	}
	return rows
}
