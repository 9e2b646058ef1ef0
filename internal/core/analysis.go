package core

import (
	"fmt"

	"webtextie/internal/corpora"
	"webtextie/internal/dataflow"
	"webtextie/internal/ling"
	"webtextie/internal/obs"
	"webtextie/internal/stats"
	"webtextie/internal/textgen"
)

// AnalysisFlow builds the full analysis plan (both branches) with or
// without the web pretreatment head. This is the flow the content analysis
// of §4.3 runs: "we also analyzed abstracts and full-texts from Medline and
// PMC using the same IE flow (downstream from the HTML treatment)".
func (r *Registry) AnalysisFlow(web bool) *dataflow.Plan {
	p := &dataflow.Plan{}
	n := p.Add(r.Op("identity", nil))
	if web {
		n = r.webPretreatment(p, n)
	}
	n = r.nlpShared(p, n)
	lingOut := r.linguisticBranch(p, n)
	entOut := r.entityBranch(p, n)
	p.Add(r.Op("union", nil), lingOut, entOut)
	return p
}

// CorpusAnalysis aggregates the per-corpus measurements behind Table 4 and
// Figs 6-8.
type CorpusAnalysis struct {
	Kind      textgen.CorpusKind
	Docs      int
	Sentences int

	// Ling holds per-document linguistic statistics (Fig 6).
	Ling []ling.DocStats

	// DistinctNames[m][t] is the distinct surface-form set (Table 4, Fig 8).
	DistinctNames map[Method]map[textgen.EntityType]map[string]bool
	// NameCounts[m][t] are mention frequencies per name (JSD, §4.3.2).
	NameCounts map[Method]map[textgen.EntityType]map[string]int
	// MentionsPerDoc[m][t] holds per-document mention counts (Fig 7).
	MentionsPerDoc map[Method]map[textgen.EntityType][]float64
	// TotalMentions[m][t] is the corpus-wide mention count.
	TotalMentions map[Method]map[textgen.EntityType]int

	// PosFailed counts sentences the POS tagger crashed on (§4.2).
	PosFailed int
	// FlowErrors counts records dropped by operator failures.
	FlowErrors int64
	// FlowRetries counts operator attempts replayed under ExecOpRetries.
	FlowRetries int64
	// FlowQuarantined counts records dead-lettered by the executor.
	FlowQuarantined int64

	// RawMLGeneNames is the distinct ML gene-name set BEFORE TLA filtering
	// (Table 4 reports this; Fig 7c the filtered set). TLARemoved counts
	// the filtered mentions.
	RawMLGeneNames map[string]bool
	TLARemoved     int
}

// newCorpusAnalysis allocates the nested maps.
func newCorpusAnalysis(kind textgen.CorpusKind) *CorpusAnalysis {
	a := &CorpusAnalysis{
		Kind:           kind,
		DistinctNames:  map[Method]map[textgen.EntityType]map[string]bool{},
		NameCounts:     map[Method]map[textgen.EntityType]map[string]int{},
		MentionsPerDoc: map[Method]map[textgen.EntityType][]float64{},
		TotalMentions:  map[Method]map[textgen.EntityType]int{},
		RawMLGeneNames: map[string]bool{},
	}
	for _, m := range Methods {
		a.DistinctNames[m] = map[textgen.EntityType]map[string]bool{}
		a.NameCounts[m] = map[textgen.EntityType]map[string]int{}
		a.MentionsPerDoc[m] = map[textgen.EntityType][]float64{}
		a.TotalMentions[m] = map[textgen.EntityType]int{}
		for _, t := range textgen.EntityTypes {
			a.DistinctNames[m][t] = map[string]bool{}
			a.NameCounts[m][t] = map[string]int{}
		}
	}
	return a
}

// MentionsPer1000Sentences returns the §4.3.2 avg_* measure for one
// method/type (mentions per 1000 sentences), combining both methods when
// method < 0.
func (a *CorpusAnalysis) MentionsPer1000Sentences(m Method, t textgen.EntityType) float64 {
	if a.Sentences == 0 {
		return 0
	}
	return 1000 * float64(a.TotalMentions[m][t]) / float64(a.Sentences)
}

// Distribution returns the entity-name frequency distribution for JSD.
func (a *CorpusAnalysis) Distribution(m Method, t textgen.EntityType) stats.Distribution {
	return stats.NewDistribution(a.NameCounts[m][t])
}

// AnalyzeCorpus runs the analysis flow over one corpus and aggregates the
// results. DoP controls the local executor's parallelism.
func (s *System) AnalyzeCorpus(reg *Registry, c *corpora.Corpus, dop int) (*CorpusAnalysis, error) {
	return s.AnalyzeCorpusFunc(reg, c, dop, nil)
}

// AnalyzeCorpusFunc is AnalyzeCorpus with an optional per-document callback
// receiving the extracted entity mentions — the hook fact exporters use.
// The callback runs on the aggregation goroutine (no synchronization
// needed).
func (s *System) AnalyzeCorpusFunc(reg *Registry, c *corpora.Corpus, dop int,
	onEntities func(docID string, ents []EntityAnn)) (*CorpusAnalysis, error) {
	plan := reg.AnalysisFlow(false)
	dataflow.Optimize(plan)

	records := make([]dataflow.Record, len(c.Docs))
	for i, d := range c.Docs {
		records[i] = dataflow.Record{"id": d.ID, "text": d.Text}
	}
	// Per-operator counters/latency go to the process registry (dumped by
	// the cmds' -metrics flag); AnalyzeAll runs corpora sequentially, so
	// the shared registry keeps ExecStats exact.
	exec := dataflow.ExecConfig{DoP: dop, Set: s.Cfg.Exec, TraceKey: "id",
		Policy: s.Cfg.ExecPolicy, OpRetries: s.Cfg.ExecOpRetries}
	exec.Metrics = obs.Default()
	results, execStats, err := dataflow.Execute(plan, records, exec)
	if err != nil {
		return nil, fmt.Errorf("core: analyzing %v: %w", c.Kind, err)
	}

	a := newCorpusAnalysis(c.Kind)
	a.Docs = len(c.Docs)
	a.FlowErrors = execStats.TotalErrors()
	a.FlowRetries = execStats.TotalRetries()
	a.FlowQuarantined = execStats.TotalQuarantined()
	sinks := plan.Sinks()
	if len(sinks) != 1 {
		return nil, fmt.Errorf("core: analysis flow has %d sinks", len(sinks))
	}
	for _, rec := range results[sinks[0].ID()] {
		if lstats, ok := rec["ling"].(ling.DocStats); ok {
			a.Ling = append(a.Ling, lstats)
			a.Sentences += lstats.Sentences
			continue
		}
		if ents, ok := rec["entities"].([]EntityAnn); ok {
			a.PosFailed += get[int](rec, "pos_failed")
			if onEntities != nil {
				onEntities(get[string](rec, "id"), ents)
			}
			perDoc := map[Method]map[textgen.EntityType]int{
				Dict: {}, ML: {},
			}
			for _, e := range ents {
				a.DistinctNames[e.Method][e.Type][e.Surface] = true
				a.NameCounts[e.Method][e.Type][e.Surface]++
				a.TotalMentions[e.Method][e.Type]++
				perDoc[e.Method][e.Type]++
				if e.Method == ML && e.Type == textgen.Gene {
					a.RawMLGeneNames[e.Surface] = true
				}
			}
			if removed, ok := rec["tla_removed"].([]EntityAnn); ok {
				a.TLARemoved += len(removed)
				for _, e := range removed {
					a.RawMLGeneNames[e.Surface] = true
				}
			}
			for _, m := range Methods {
				for _, t := range textgen.EntityTypes {
					a.MentionsPerDoc[m][t] = append(a.MentionsPerDoc[m][t],
						float64(perDoc[m][t]))
				}
			}
		}
	}
	return a, nil
}

// AnalysisSet holds the four corpus analyses plus the shared registry —
// the complete substrate of the §4.3 content comparison.
type AnalysisSet struct {
	System   *System
	Registry *Registry
	ByKind   map[textgen.CorpusKind]*CorpusAnalysis
}

// AnalyzeAll runs the analysis flow over all four corpora.
func (s *System) AnalyzeAll(dop int) (*AnalysisSet, error) {
	reg := s.Registry()
	out := &AnalysisSet{System: s, Registry: reg,
		ByKind: map[textgen.CorpusKind]*CorpusAnalysis{}}
	for _, kind := range textgen.CorpusKinds {
		a, err := s.AnalyzeCorpus(reg, s.Set.Corpus(kind), dop)
		if err != nil {
			return nil, err
		}
		out.ByKind[kind] = a
	}
	return out, nil
}

// DistinctNameSets returns, for one method and type, the four distinct-name
// sets in corpus order — the Fig 8 input.
func (as *AnalysisSet) DistinctNameSets(m Method, t textgen.EntityType) (rel, irr, med, pmc map[string]bool) {
	return as.ByKind[textgen.Relevant].DistinctNames[m][t],
		as.ByKind[textgen.Irrelevant].DistinctNames[m][t],
		as.ByKind[textgen.Medline].DistinctNames[m][t],
		as.ByKind[textgen.PMC].DistinctNames[m][t]
}
