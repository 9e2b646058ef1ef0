// Package core is the end-to-end system of the paper: it wires the focused
// crawler, the corpus builders, and the NLP/IE tool suite into the
// declarative data flows of §3 and exposes every experiment of §4.
//
// A System owns all trained components — the Naive Bayes relevance
// classifier (trained Medline-vs-web, §2), the HMM POS tagger (MedPost
// substitute), three dictionary matchers built from the synthesized
// Gene Ontology / Drugbank / MeSH-scale dictionaries, and three CRF entity
// taggers trained on Medline-profile text (BANNER / ChemSpot substitutes) —
// plus the operator registry that makes them available to Meteor scripts.
package core

import (
	"fmt"

	"webtextie/internal/corpora"
	"webtextie/internal/dataflow"
	"webtextie/internal/ie/crf"
	"webtextie/internal/ie/dict"
	"webtextie/internal/nlp/postag"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

// Method distinguishes the two extraction approaches compared throughout
// §4.3 (Table 4, Figs 7-8).
type Method int

const (
	// Dict is fuzzy dictionary matching (LINNAEUS-style automaton).
	Dict Method = iota
	// ML is CRF-based tagging (BANNER/ChemSpot-style).
	ML
)

// Methods lists both in reporting order.
var Methods = []Method{Dict, ML}

// String names the method as in Table 4.
func (m Method) String() string {
	if m == Dict {
		return "Dict."
	}
	return "ML"
}

// EntityAnn is one extracted entity mention (the payload of the "entities"
// record field).
type EntityAnn struct {
	Type    textgen.EntityType
	Method  Method
	Start   int
	End     int
	Surface string
}

// Config controls system construction.
type Config struct {
	// Corpora configures corpus construction (including the crawl).
	Corpora corpora.BuildConfig
	// CRFTrainDocs is the number of Medline documents the ML taggers are
	// trained on.
	CRFTrainDocs int
	// POSTrainDocs is the number of Medline documents the POS tagger is
	// trained on.
	POSTrainDocs int
	// POSMaxTokens is the POS tagger's crash threshold (Fig 3a).
	POSMaxTokens int
	// ExecPolicy selects the dataflow executor's response to UDF errors
	// during analysis (dataflow.Quarantine by default: count, dead-letter,
	// continue; dataflow.FailFast aborts the run on the first failure).
	ExecPolicy dataflow.ErrorPolicy
	// ExecOpRetries is the executor's per-record operator retry budget.
	ExecOpRetries int
	// Exec holds the observability pillars handed to every dataflow
	// execution the system runs: Trace records per-record lineage (keyed
	// by the record's "id"), Log receives the executions' event log —
	// and, unless Corpora.Log is already set, corpus construction's too —
	// and Prof attributes per-operator cost. Metrics always go to the
	// process registry.
	Exec pillars.Set
}

// DefaultConfig returns the standard full-scale (1:10,000) setup.
func DefaultConfig() Config {
	return Config{
		Corpora:      corpora.DefaultBuildConfig(),
		CRFTrainDocs: 300,
		POSTrainDocs: 300,
		POSMaxTokens: 400,
	}
}

// TestConfig returns a reduced setup for fast tests and examples.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.Corpora.ScaleFactor = 100000
	cfg.Corpora.SeedTermScale = 100
	cfg.Corpora.Web.NumHosts = 80
	cfg.Corpora.Crawl.MaxPages = 400
	cfg.Corpora.Lexicon = textgen.LexiconSizes{Genes: 500, Drugs: 150, Diseases: 150}
	cfg.Corpora.TrainDocsPerClass = 200
	cfg.CRFTrainDocs = 150
	cfg.POSTrainDocs = 150
	return cfg
}

// System is the assembled end-to-end text-analytics system.
type System struct {
	Cfg Config
	// Set holds the four corpora and the crawl artifacts.
	Set *corpora.Set
	// POS is the HMM part-of-speech tagger.
	POS *postag.Tagger
	// DictMatchers holds the per-class dictionary automatons.
	DictMatchers map[textgen.EntityType]*dict.Matcher
	// CRF is the ML taggers of the three classes as one model, and
	// CRFTaggers holds its per-class views.
	CRF        *crf.Model
	CRFTaggers map[textgen.EntityType]*crf.Tagger
}

// NewSystem builds corpora and trains every component. Construction is
// deterministic in the config seed.
func NewSystem(cfg Config) *System {
	if cfg.Corpora.Log == nil {
		cfg.Corpora.Log = cfg.Exec.Log
	}
	set := corpora.Build(cfg.Corpora)
	s := &System{
		Cfg:          cfg,
		Set:          set,
		DictMatchers: map[textgen.EntityType]*dict.Matcher{},
		CRFTaggers:   map[textgen.EntityType]*crf.Tagger{},
	}

	// POS tagger: trained on Medline-profile gold tags (MedPost was
	// trained on Medline sentences).
	r := rng.New(cfg.Corpora.Seed).Split("postag-training")
	var posData [][]postag.TaggedToken
	for i := 0; i < cfg.POSTrainDocs; i++ {
		d := set.Generator.Doc(r, textgen.Medline, fmt.Sprint("pos-train", i))
		for _, sent := range d.Sentences {
			row := make([]postag.TaggedToken, len(sent.Tokens))
			for j, tok := range sent.Tokens {
				row[j] = postag.TaggedToken{Word: tok.Text, Tag: tok.Tag}
			}
			posData = append(posData, row)
		}
	}
	posCfg := postag.DefaultConfig()
	if cfg.POSMaxTokens != 0 {
		posCfg.MaxTokens = cfg.POSMaxTokens
	}
	s.POS = postag.Train(posData, posCfg)

	// Dictionary matchers from the curated (in-dictionary) surfaces.
	for _, t := range textgen.EntityTypes {
		s.DictMatchers[t] = dict.Build(t.String(),
			set.Lexicon.DictionarySurfaces(t), dict.DefaultOptions())
	}

	// CRF taggers trained on Medline-profile documents only (§5: "all
	// ML-based methods ... employ models trained on Medline abstracts").
	rc := rng.New(cfg.Corpora.Seed).Split("crf-training")
	var crfDocs []*textgen.Doc
	for i := 0; i < cfg.CRFTrainDocs; i++ {
		crfDocs = append(crfDocs, set.Generator.Doc(rc, textgen.Medline, fmt.Sprint("crf-train", i)))
	}
	s.CRF = crf.Train(textgen.EntityTypes, crf.TrainingSentences(crfDocs, textgen.EntityTypes...), crf.DefaultConfig())
	for _, t := range textgen.EntityTypes {
		s.CRFTaggers[t] = s.CRF.Tagger(t)
	}
	return s
}

// ExtractDict runs dictionary NER of one class over text.
func (s *System) ExtractDict(t textgen.EntityType, text string) []EntityAnn {
	ms := s.DictMatchers[t].Find(text)
	out := make([]EntityAnn, len(ms))
	for i, m := range ms {
		out[i] = EntityAnn{Type: t, Method: Dict, Start: m.Start, End: m.End, Surface: m.Surface}
	}
	return out
}

// ExtractML runs CRF NER of one class over text.
func (s *System) ExtractML(t textgen.EntityType, text string) []EntityAnn {
	return mlAnns(t, s.CRFTaggers[t].Extract(text))
}

// mlAnns converts one class's CRF matches into entity mentions.
func mlAnns(t textgen.EntityType, ms []crf.Match) []EntityAnn {
	out := make([]EntityAnn, len(ms))
	for i, m := range ms {
		out[i] = EntityAnn{Type: t, Method: ML, Start: m.Start, End: m.End, Surface: m.Surface}
	}
	return out
}
