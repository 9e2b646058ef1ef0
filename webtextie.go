// Package webtextie is a from-scratch Go reproduction of "Potential and
// Pitfalls of Domain-Specific Information Extraction at Web Scale"
// (Rheinländer, Lehmann, Kunkel, Meier, Leser — SIGMOD 2016).
//
// The library rebuilds the paper's entire stack against a deterministic
// synthetic web (the live web, Medline and PMC are substituted by
// calibrated generators; see DESIGN.md):
//
//   - a focused crawler (Nutch-style generate/fetch/update loop with
//     MIME/language/length filters, Boilerpipe-style net-text extraction
//     and a Naive Bayes relevance classifier);
//   - seed generation against simulated search-engine APIs;
//   - a Stratosphere-style data-flow engine with >60 operators in four
//     packages (BASE/IE/WA/DC), a Meteor-dialect script language, and a
//     SOFA-style logical optimizer;
//   - the NLP/IE tool suite: HMM POS tagging (MedPost substitute),
//     Aho-Corasick dictionary NER and CRF-based NER (LINNAEUS / BANNER /
//     ChemSpot substitutes), regex-based linguistic analysis;
//   - a simulated 28-node cluster for the scalability experiments;
//   - every table and figure of the paper's evaluation (cmd/experiments).
//
// Quick start:
//
//	sys := webtextie.New(webtextie.QuickConfig())
//	analysis, err := sys.AnalyzeAll(4)
//	...
//	exp := webtextie.NewExperiments(webtextie.QuickConfig())
//	fmt.Println(exp.Table4())
//
// The heavy lifting lives in internal packages; this package re-exports
// the stable surface.
package webtextie

import (
	"webtextie/internal/core"
	"webtextie/internal/corpora"
	"webtextie/internal/dataflow"
	"webtextie/internal/textgen"
)

// Re-exported core types.
type (
	// Config controls system construction (corpora, crawl, training).
	Config = core.Config
	// System is the assembled end-to-end text-analytics system.
	System = core.System
	// Registry resolves data-flow operators for Meteor scripts.
	Registry = core.Registry
	// Experiments regenerates every table and figure of the paper.
	Experiments = core.Experiments
	// AnalysisSet holds the four per-corpus content analyses.
	AnalysisSet = core.AnalysisSet
	// CorpusAnalysis aggregates one corpus's measurements.
	CorpusAnalysis = core.CorpusAnalysis
	// EntityAnn is one extracted entity mention.
	EntityAnn = core.EntityAnn
	// Method distinguishes dictionary- from ML-based extraction.
	Method = core.Method
	// CorpusKind identifies one of the four corpora.
	CorpusKind = textgen.CorpusKind
	// EntityType is one of the three biomedical entity classes.
	EntityType = textgen.EntityType
	// ErrorPolicy selects the data-flow executor's failure response.
	ErrorPolicy = dataflow.ErrorPolicy
)

// Executor error policies (Config.ExecPolicy).
const (
	// Quarantine counts and dead-letters failing records, then continues.
	Quarantine = dataflow.Quarantine
	// FailFast aborts the whole run on the first terminal failure.
	FailFast = dataflow.FailFast
)

// Extraction methods.
const (
	Dict = core.Dict
	ML   = core.ML
)

// Corpus kinds (Table 3 order).
const (
	Relevant   = textgen.Relevant
	Irrelevant = textgen.Irrelevant
	Medline    = textgen.Medline
	PMC        = textgen.PMC
)

// Entity classes.
const (
	Gene    = textgen.Gene
	Drug    = textgen.Drug
	Disease = textgen.Disease
)

// New builds the complete system: synthesizes the lexicons and the
// synthetic web, trains the classifier and all taggers, generates seeds,
// and runs the focused crawl. Construction is deterministic in the seed.
func New(cfg Config) *System { return core.NewSystem(cfg) }

// DefaultConfig is the full (1:10,000) configuration used by
// cmd/experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// QuickConfig is a reduced configuration for examples and smoke tests
// (smaller web, shorter crawl, smaller dictionaries).
func QuickConfig() Config { return core.TestConfig() }

// NewExperiments prepares the experiment runner for a configuration.
func NewExperiments(cfg Config) *Experiments { return core.NewExperiments(cfg) }

// NewExperimentsFromSystem wraps an existing system.
func NewExperimentsFromSystem(sys *System) *Experiments {
	return core.NewExperimentsFromSystem(sys)
}

// BuildCorpora constructs the four corpora (including the focused crawl)
// without training the IE tool suite.
func BuildCorpora(cfg corpora.BuildConfig) *corpora.Set { return corpora.Build(cfg) }

// ConsolidatedMeteorScript is a Meteor-dialect variant of the paper's Fig 2
// flow: 30 nodes with one sink per branch, smaller than the 38-operator
// ConsolidatedFlow.
const ConsolidatedMeteorScript = core.ConsolidatedMeteorScript
