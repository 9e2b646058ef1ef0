package webtextie

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§4), plus ablation benches for the design
// choices DESIGN.md calls out. Each benchmark regenerates its experiment
// and reports domain metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. EXPERIMENTS.md records paper-reported vs
// measured values for every entry.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/boiler"
	"webtextie/internal/classify"
	"webtextie/internal/cluster"
	"webtextie/internal/core"
	"webtextie/internal/crawler"
	"webtextie/internal/dataflow"
	"webtextie/internal/eval"
	"webtextie/internal/graph"
	"webtextie/internal/ie/crf"
	"webtextie/internal/ie/dict"
	"webtextie/internal/nlp/postag"
	"webtextie/internal/rng"
	"webtextie/internal/seeds"
	"webtextie/internal/stats"
	"webtextie/internal/textgen"
)

var (
	benchOnce sync.Once
	benchSys  *System
	benchAS   *AnalysisSet
)

// benchSystem builds the shared quick-scale system once per process.
func benchSystem(b *testing.B) (*System, *AnalysisSet) {
	b.Helper()
	benchOnce.Do(func() {
		benchSys = New(QuickConfig())
		as, err := benchSys.AnalyzeAll(4)
		if err != nil {
			panic(err)
		}
		benchAS = as
	})
	return benchSys, benchAS
}

// --- Table 1: seed-term catalogues and seed generation ---

func BenchmarkTable1SeedGeneration(b *testing.B) {
	sys, _ := benchSystem(b)
	sizes := seeds.ScaledSizes(seeds.PaperSizes(), 100)
	b.ResetTimer()
	var run seeds.Run
	for i := 0; i < b.N; i++ {
		catalog := seeds.BuildCatalog(3, sys.Set.Lexicon, sizes)
		run = seeds.Generate(seeds.DefaultEngines(4, sys.Set.Web), catalog)
	}
	b.ReportMetric(float64(len(run.SeedURLs)), "seedURLs")
	b.ReportMetric(float64(run.QueriesIssued), "queries")
}

// --- §4.1: crawl throughput and harvest rate ---

func BenchmarkCrawlThroughput(b *testing.B) {
	sys, _ := benchSystem(b)
	catalog := seeds.BuildCatalog(3, sys.Set.Lexicon,
		seeds.CatalogSizes{General: 5, Disease: 15, Drug: 10, Gene: 20})
	seedURLs := seeds.Generate(seeds.DefaultEngines(4, sys.Set.Web), catalog).SeedURLs
	b.ResetTimer()
	var st crawler.Stats
	for i := 0; i < b.N; i++ {
		cfg := crawler.DefaultConfig()
		cfg.MaxPages = 300
		st = crawler.New(cfg, sys.Set.Web, sys.Set.Classifier).Run(seedURLs).Stats
	}
	b.ReportMetric(100*st.HarvestRate(), "harvest%")
	b.ReportMetric(st.DocsPerSecond(), "simDocs/s")
	b.ReportMetric(float64(st.Fetched)/b.Elapsed().Seconds()*float64(b.N), "realDocs/s")
}

// --- Table 2: PageRank over the crawled link graph ---

func BenchmarkTable2PageRank(b *testing.B) {
	sys, _ := benchSystem(b)
	g := graph.FromLinkDB(sys.Set.Crawl.LinkDB)
	b.ResetTimer()
	var top []graph.Ranked
	for i := 0; i < b.N; i++ {
		top = graph.TopHosts(g.PageRank(0.85, 100, 1e-10), 30)
	}
	b.ReportMetric(float64(len(g.Nodes)), "hosts")
	b.ReportMetric(float64(len(top)), "top")
}

// --- Table 3: corpus construction ---

func BenchmarkTable3CorpusSummary(b *testing.B) {
	sys, _ := benchSystem(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(sys.Set.Table3())
	}
	b.ReportMetric(float64(rows), "corpora")
	rel := sys.Set.Corpus(Relevant)
	b.ReportMetric(rel.MeanChars(), "relMeanChars")
	b.ReportMetric(sys.Set.Corpus(Medline).MeanChars(), "medlineMeanChars")
}

// --- Fig 3a: POS tagging runtime vs sentence length ---

func BenchmarkFig3aPOSTagging(b *testing.B) {
	sys, _ := benchSystem(b)
	gen := sys.Set.Generator
	r := rng.New(5)
	var words []string
	for len(words) < 400 {
		d := gen.Doc(r, Medline, "bench")
		for _, s := range d.Sentences {
			for _, tok := range s.Tokens {
				words = append(words, tok.Text)
			}
		}
	}
	for _, n := range []int{10, 50, 200, 400} {
		b.Run(fmt.Sprintf("tokens=%d", n), func(b *testing.B) {
			cfg := postag.DefaultConfig()
			cfg.MaxTokens = 0
			in := words[:n]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.POS.Tag(in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N)/1e6, "Mtokens/s")
		})
	}
}

// --- Fig 3b: dictionary vs ML NER runtime ---

func BenchmarkFig3bNER(b *testing.B) {
	sys, _ := benchSystem(b)
	gen := sys.Set.Generator
	d := gen.Doc(rng.New(6), Medline, "bench")
	text := d.Text
	b.Run("dict/gene", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			_ = sys.DictMatchers[Gene].Find(text)
		}
	})
	b.Run("ml/gene", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			_ = sys.CRFTaggers[Gene].Extract(text)
		}
	})
}

// --- Fig 4: scale-up on the simulated paper cluster ---

func BenchmarkFig4ScaleUp(b *testing.B) {
	ling, ent, _ := core.PaperProfiles()
	c := cluster.PaperCluster()
	dops := []int{1, 2, 4, 8, 12, 16, 20, 24, 28}
	b.ResetTimer()
	var lp, ep []cluster.SweepPoint
	for i := 0; i < b.N; i++ {
		lp = c.ScaleUp(ling, 1, dops)
		ep = c.ScaleUp(ent, 1, dops)
	}
	b.ReportMetric(lp[len(lp)-1].Result.TotalSec/lp[0].Result.TotalSec, "lingDegrade")
	b.ReportMetric(ep[len(ep)-1].Result.TotalSec/ep[0].Result.TotalSec, "entityDegrade")
}

// --- Fig 5: scale-out on the simulated paper cluster ---

func BenchmarkFig5ScaleOut(b *testing.B) {
	ling, ent, _ := core.PaperProfiles()
	c := cluster.PaperCluster()
	dops := []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 56, 84, 140, 156}
	b.ResetTimer()
	var lingDrop, entDrop float64
	for i := 0; i < b.N; i++ {
		lp := c.ScaleOut(ling, 20, dops)
		ep := c.ScaleOut(ent, 20, dops)
		lingDrop = 1 - lp[len(lp)-1].Result.TotalSec/lp[0].Result.TotalSec
		var e4, e16 float64
		for _, p := range ep {
			if p.DoP == 4 {
				e4 = p.Result.TotalSec
			}
			if p.DoP == 16 {
				e16 = p.Result.TotalSec
			}
		}
		entDrop = 1 - e16/e4
	}
	b.ReportMetric(100*lingDrop, "lingDrop%")
	b.ReportMetric(100*entDrop, "entityDrop%")
}

// --- Fig 6: linguistic distributions ---

func BenchmarkFig6Linguistic(b *testing.B) {
	_, as := benchSystem(b)
	b.ResetTimer()
	var p float64
	for i := 0; i < b.N; i++ {
		var rel, med []float64
		for _, l := range as.ByKind[Relevant].Ling {
			rel = append(rel, float64(l.Chars))
		}
		for _, l := range as.ByKind[Medline].Ling {
			med = append(med, float64(l.Chars))
		}
		_, p = stats.MannWhitney(rel, med)
	}
	b.ReportMetric(p, "MWW-p")
}

// --- Table 4 / Fig 7: entity extraction over all corpora ---

func BenchmarkTable4EntityExtraction(b *testing.B) {
	sys, _ := benchSystem(b)
	reg := sys.Registry()
	corpus := sys.Set.Corpus(Medline)
	b.ResetTimer()
	var a *CorpusAnalysis
	for i := 0; i < b.N; i++ {
		var err error
		a, err = sys.AnalyzeCorpus(reg, corpus, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(a.DistinctNames[Dict][Gene])), "dictGeneNames")
	b.ReportMetric(float64(len(a.RawMLGeneNames)), "mlGeneNamesRaw")
}

func BenchmarkFig7Incidences(b *testing.B) {
	_, as := benchSystem(b)
	b.ResetTimer()
	var rel, med float64
	for i := 0; i < b.N; i++ {
		rel = as.ByKind[Relevant].MentionsPer1000Sentences(Dict, Disease)
		med = as.ByKind[Medline].MentionsPer1000Sentences(Dict, Disease)
	}
	b.ReportMetric(rel, "relDisease/1k")
	b.ReportMetric(med, "medDisease/1k")
}

// --- Fig 8: overlap partitions ---

func BenchmarkFig8Overlap(b *testing.B) {
	_, as := benchSystem(b)
	b.ResetTimer()
	var o eval.Overlap
	for i := 0; i < b.N; i++ {
		rel, irr, med, pmc := as.DistinctNameSets(Dict, Disease)
		o = eval.ComputeOverlap(rel, irr, med, pmc)
	}
	b.ReportMetric(float64(o.Total), "distinctNames")
}

// --- §4.3.2: JSD ---

func BenchmarkJSD(b *testing.B) {
	_, as := benchSystem(b)
	relD := as.ByKind[Relevant].Distribution(Dict, Gene)
	irrD := as.ByKind[Irrelevant].Distribution(Dict, Gene)
	medD := as.ByKind[Medline].Distribution(Dict, Gene)
	b.ResetTimer()
	var jIrr, jMed float64
	for i := 0; i < b.N; i++ {
		jIrr = stats.JSD(relD, irrD)
		jMed = stats.JSD(relD, medD)
	}
	b.ReportMetric(jIrr, "JSD(rel,irr)")
	b.ReportMetric(jMed, "JSD(rel,med)")
}

// --- Consolidated flow end-to-end ---

func BenchmarkConsolidatedFlow(b *testing.B) {
	sys, _ := benchSystem(b)
	reg := sys.Registry()
	var recs []dataflow.Record
	for _, pg := range sys.Set.Crawl.Relevant {
		if len(recs) >= 20 {
			break
		}
		p, err := sys.Set.Web.Fetch(pg.URL)
		if err != nil {
			continue
		}
		recs = append(recs, dataflow.Record{"id": p.URL, "html": string(p.Body)})
	}
	plan := reg.ConsolidatedFlow()
	dataflow.Optimize(plan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dataflow.Execute(plan, recs, dataflow.ExecConfig{DoP: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plan.Size()), "operators")
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationDictVariants: variant expansion costs automaton size
// (memory) and buys recall.
func BenchmarkAblationDictVariants(b *testing.B) {
	sys, _ := benchSystem(b)
	surfaces := sys.Set.Lexicon.DictionarySurfaces(Disease)
	for _, variants := range []bool{true, false} {
		b.Run(fmt.Sprintf("variants=%v", variants), func(b *testing.B) {
			var m *dict.Matcher
			for i := 0; i < b.N; i++ {
				m = dict.Build("disease", surfaces,
					dict.Options{Variants: variants, CaseInsensitive: true})
			}
			b.ReportMetric(float64(m.Stats().Nodes), "nodes")
			b.ReportMetric(float64(m.Stats().Bytes), "bytes")
		})
	}
}

// BenchmarkAblationCRFFeatures: shape features cause the TLA pathology on
// web text (and help in-domain accuracy).
func BenchmarkAblationCRFFeatures(b *testing.B) {
	sys, _ := benchSystem(b)
	gen := sys.Set.Generator
	r := rng.New(8)
	var docs []*textgen.Doc
	for i := 0; i < 100; i++ {
		docs = append(docs, gen.Doc(r, Medline, fmt.Sprint("abl", i)))
	}
	data := crf.TrainingSentences(docs, Gene)
	for _, shapes := range []bool{true, false} {
		b.Run(fmt.Sprintf("shapes=%v", shapes), func(b *testing.B) {
			cfg := crf.DefaultConfig()
			cfg.UseShapeFeatures = shapes
			var tagger *crf.Tagger
			for i := 0; i < b.N; i++ {
				tagger = crf.Train(Gene, data, cfg)
			}
			// TLA matches over 20 web documents.
			wr := rng.New(9)
			tlas := 0
			for d := 0; d < 20; d++ {
				web := gen.Doc(wr, Relevant, fmt.Sprint("webdoc", d))
				for _, m := range tagger.Extract(web.Text) {
					if isTLA(m.Surface) {
						tlas++
					}
				}
			}
			b.ReportMetric(float64(tlas), "tlaMatches")
		})
	}
}

// isTLA reports whether a surface form is a bare three-letter acronym
// (§4.3.2: "we filtered all TLAs from the list of ML-tagged gene names").
func isTLA(s string) bool {
	return len(s) == 3 && strings.Trim(s, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") == ""
}

// BenchmarkAblationTunnelling: following links through irrelevant pages
// (§5) trades fetches for yield.
func BenchmarkAblationTunnelling(b *testing.B) {
	sys, _ := benchSystem(b)
	catalog := seeds.BuildCatalog(3, sys.Set.Lexicon,
		seeds.CatalogSizes{General: 4, Disease: 6, Drug: 5, Gene: 8})
	seedURLs := seeds.Generate(seeds.DefaultEngines(4, sys.Set.Web), catalog).SeedURLs
	for _, tn := range []int{1, 2} {
		b.Run(fmt.Sprintf("tunnelling=%d", tn), func(b *testing.B) {
			var st crawler.Stats
			for i := 0; i < b.N; i++ {
				cfg := crawler.DefaultConfig()
				cfg.Tunnelling = tn
				cfg.MaxPagesPerHost = 40
				st = crawler.New(cfg, sys.Set.Web, sys.Set.Classifier).Run(seedURLs).Stats
			}
			b.ReportMetric(float64(st.Relevant), "relevantDocs")
			b.ReportMetric(float64(st.Fetched), "fetched")
		})
	}
}

// BenchmarkAblationClassifierThreshold: the precision/yield trade-off (§5).
// The test set includes "fringe" documents — commerce pages sprinkled with
// biomedical vocabulary, the class behind the paper's false positives
// ("pages describing chemical support for body builders or technical
// devices used for medical purposes", §4.1). Gold-labelling fringe pages
// irrelevant, a higher threshold buys precision at the cost of recall on
// genuinely relevant pages with weak signals.
func BenchmarkAblationClassifierThreshold(b *testing.B) {
	sys, _ := benchSystem(b)
	gen := sys.Set.Generator
	r := rng.New(10)
	var examples []classify.Example
	for i := 0; i < 100; i++ {
		examples = append(examples,
			classify.Example{Text: gen.Doc(r, Medline, fmt.Sprint("tm", i)).Text, Class: classify.Relevant},
			classify.Example{Text: gen.Doc(r, Irrelevant, fmt.Sprint("tw", i)).Text, Class: classify.Irrelevant})
	}
	train := examples
	var test []classify.Example
	for i := 0; i < 60; i++ {
		// Fringe: a shopping page quoting some medical prose (irrelevant).
		web := gen.Doc(r, Irrelevant, fmt.Sprint("fw", i)).Text
		med := gen.Doc(r, Medline, fmt.Sprint("fm", i)).Text
		cut := len(med) * 2 / 3
		test = append(test, classify.Example{Text: web + " " + med[:cut], Class: classify.Irrelevant})
		// Weak-signal relevant: a short fragment of an abstract amid chatter.
		frag := med[:len(med)/3] + " " + web[:len(web)/4]
		test = append(test, classify.Example{Text: frag, Class: classify.Relevant})
	}
	for _, th := range []float64{0.2, 0.5, 0.9} {
		b.Run(fmt.Sprintf("threshold=%.1f", th), func(b *testing.B) {
			var q classify.Quality
			for i := 0; i < b.N; i++ {
				nb := classify.Train(train, th)
				q = classify.Evaluate(nb, test)
			}
			b.ReportMetric(q.Precision(), "precision")
			b.ReportMetric(q.Recall(), "recall")
		})
	}
}

// BenchmarkAblationOptimizer: logical optimization of the consolidated
// flow (filter push-down ahead of the expensive IE stages).
func BenchmarkAblationOptimizer(b *testing.B) {
	sys, _ := benchSystem(b)
	reg := sys.Registry()
	var recs []dataflow.Record
	for _, pg := range sys.Set.Crawl.IrrelevantPages {
		if len(recs) >= 30 {
			break
		}
		p, err := sys.Set.Web.Fetch(pg.URL)
		if err != nil {
			continue
		}
		recs = append(recs, dataflow.Record{"id": p.URL, "html": string(p.Body)})
	}
	for _, opt := range []bool{false, true} {
		b.Run(fmt.Sprintf("optimize=%v", opt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan := reg.ConsolidatedFlow()
				if opt {
					dataflow.Optimize(plan)
				}
				if _, _, err := dataflow.Execute(plan, recs, dataflow.ExecConfig{DoP: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHMMOrder: order-2 vs order-3 POS tagging.
func BenchmarkAblationHMMOrder(b *testing.B) {
	sys, _ := benchSystem(b)
	gen := sys.Set.Generator
	r := rng.New(11)
	var data [][]postag.TaggedToken
	for i := 0; i < 150; i++ {
		d := gen.Doc(r, Medline, fmt.Sprint("hmm", i))
		for _, s := range d.Sentences {
			var sent []postag.TaggedToken
			for _, tok := range s.Tokens {
				sent = append(sent, postag.TaggedToken{Word: tok.Text, Tag: tok.Tag})
			}
			data = append(data, sent)
		}
	}
	split := len(data) * 9 / 10
	for _, order := range []int{2, 3} {
		b.Run(fmt.Sprintf("order=%d", order), func(b *testing.B) {
			cfg := postag.DefaultConfig()
			cfg.Order = order
			tagger := postag.Train(data[:split], cfg)
			var hit, total int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit, total = 0, 0
				for _, s := range data[split:] {
					words := make([]string, len(s))
					for j, tok := range s {
						words[j] = tok.Word
					}
					tags, err := tagger.Tag(words)
					if err != nil {
						continue
					}
					for j, tok := range s {
						total++
						if tags[j] == tok.Tag {
							hit++
						}
					}
				}
			}
			b.ReportMetric(float64(hit)/float64(max(total, 1)), "accuracy")
		})
	}
}

// BenchmarkAblationBoilerplateTables: the KeepTables fix for the §4.1
// recall losses in tables and lists.
func BenchmarkAblationBoilerplateTables(b *testing.B) {
	sys, _ := benchSystem(b)
	var pages []string
	var gold []string
	for _, pg := range sys.Set.Crawl.Relevant {
		if len(pages) >= 40 || pg.Gold == nil {
			break
		}
		p, err := sys.Set.Web.Fetch(pg.URL)
		if err != nil {
			continue
		}
		pages = append(pages, string(p.Body))
		gold = append(gold, pg.Gold.Text)
	}
	for _, keep := range []bool{false, true} {
		b.Run(fmt.Sprintf("keepTables=%v", keep), func(b *testing.B) {
			c := boiler.Default()
			c.KeepTables = keep
			var sumR float64
			for i := 0; i < b.N; i++ {
				sumR = 0
				for j, html := range pages {
					res := c.Extract(html)
					_, r := boiler.WordOverlapPR(res.NetText, gold[j])
					sumR += r
				}
			}
			b.ReportMetric(sumR/float64(len(pages)), "recall")
		})
	}
}

// BenchmarkAblationEntityBoost: the §5 consolidated-process extension —
// IE-informed relevance rescues pages a precision-geared classifier
// rejects.
func BenchmarkAblationEntityBoost(b *testing.B) {
	sys, _ := benchSystem(b)
	catalog := seeds.BuildCatalog(3, sys.Set.Lexicon,
		seeds.CatalogSizes{General: 4, Disease: 8, Drug: 6, Gene: 10})
	seedURLs := seeds.Generate(seeds.DefaultEngines(4, sys.Set.Web), catalog).SeedURLs
	strict := sys.Set.Classifier.Clone()
	strict.Threshold = 0.999
	for _, boost := range []bool{false, true} {
		b.Run(fmt.Sprintf("entityBoost=%v", boost), func(b *testing.B) {
			var st crawler.Stats
			for i := 0; i < b.N; i++ {
				cfg := crawler.DefaultConfig()
				cfg.MaxPages = 400
				cfg.EntityBoost = boost
				c := crawler.New(cfg, sys.Set.Web, strict.Clone())
				if boost {
					c.WithEntityMatchers(sys.DictMatchers)
				}
				st = c.Run(seedURLs).Stats
			}
			b.ReportMetric(float64(st.Relevant), "relevantDocs")
			b.ReportMetric(float64(st.EntityBoosted), "boosted")
		})
	}
}

// BenchmarkAblationSelfTraining: the §2.1 incremental-update extension.
func BenchmarkAblationSelfTraining(b *testing.B) {
	sys, _ := benchSystem(b)
	catalog := seeds.BuildCatalog(3, sys.Set.Lexicon,
		seeds.CatalogSizes{General: 4, Disease: 8, Drug: 6, Gene: 10})
	seedURLs := seeds.Generate(seeds.DefaultEngines(4, sys.Set.Web), catalog).SeedURLs
	for _, st := range []bool{false, true} {
		b.Run(fmt.Sprintf("selfTraining=%v", st), func(b *testing.B) {
			var stats crawler.Stats
			for i := 0; i < b.N; i++ {
				cfg := crawler.DefaultConfig()
				cfg.MaxPages = 400
				cfg.SelfTraining = st
				stats = crawler.New(cfg, sys.Set.Web, sys.Set.Classifier.Clone()).Run(seedURLs).Stats
			}
			b.ReportMetric(float64(stats.SelfTrainUpdates), "updates")
			b.ReportMetric(float64(stats.Relevant), "relevantDocs")
		})
	}
}

// BenchmarkRelationExtraction: the relation-extraction extension flow.
func BenchmarkRelationExtraction(b *testing.B) {
	sys, _ := benchSystem(b)
	reg := sys.Registry()
	plan := reg.RelationFlow(false)
	c := sys.Set.Corpus(Medline)
	recs := make([]dataflow.Record, 0, 50)
	for _, d := range c.Docs[:min(50, len(c.Docs))] {
		recs = append(recs, dataflow.Record{"id": d.ID, "text": d.Text})
	}
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		results, _, err := dataflow.Execute(plan, recs, dataflow.ExecConfig{DoP: 4})
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, sink := range plan.Sinks() {
			for _, rec := range results[sink.ID()] {
				total += rec["n_relations"].(int)
			}
		}
	}
	b.ReportMetric(float64(total), "relations")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
