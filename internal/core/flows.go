package core

import (
	"webtextie/internal/cluster"
	"webtextie/internal/dataflow"
	"webtextie/internal/meteor"
)

// Flow constructors. The consolidated flow is Fig 2: "The complete data
// flow comprising all required analysis for this study consists of 38
// elementary operators" — web pages are filtered, markup is detected,
// repaired and removed, sentence/token boundaries are annotated, and the
// flow forks into the linguistic analysis (pronouns/negation/parenthesis)
// and the biomedical content analysis (POS tagging, then gene/drug/disease
// annotation by both a dictionary and an ML tagger per class).

// webPretreatment appends the web-specific head of the flow (HTML
// treatment; skipped for Medline/PMC, §4.3: "the same IE flow (downstream
// from the HTML treatment)").
func (r *Registry) webPretreatment(p *dataflow.Plan, src *dataflow.Node) *dataflow.Node {
	n := p.Add(r.Op("filter_html_length", meteor.Params{"max": num(2 << 20)}), src) // 1 exclude extremely long documents
	n = p.Add(r.Op("mime_filter", nil), n)                                          // 2
	n = p.Add(r.Op("parse_html", nil), n)                                           // 3 detect markup
	n = p.Add(r.Op("repair_markup", nil), n)                                        // 4 repair errors
	n = p.Add(r.Op("boilerplate_detect", nil), n)                                   // 5 remove markup / net text
	n = p.Add(r.Op("extract_links", nil), n)                                        // 6
	n = p.Add(r.Op("extract_title", nil), n)                                        // 7
	n = p.Add(r.Op("language_filter", nil), n)                                      // 8
	n = p.Add(r.Op("normalize_whitespace", nil), n)                                 // 9
	n = p.Add(r.Op("filter_length", meteor.Params{"min": num(100)}), n)             // 10
	n = p.Add(r.Op("dedupe_exact", nil), n)                                         // 11
	return n
}

// nlpShared appends sentence and token annotation.
func (r *Registry) nlpShared(p *dataflow.Plan, n *dataflow.Node) *dataflow.Node {
	n = p.Add(r.Op("annotate_sentences", nil), n)                                           // 12
	n = p.Add(r.Op("filter_degenerate_sentences", meteor.Params{"max_chars": num(600)}), n) // 13
	n = p.Add(r.Op("annotate_tokens", nil), n)                                              // 14
	n = p.Add(r.Op("count_sentences", nil), n)                                              // 15
	n = p.Add(r.Op("token_count", nil), n)                                                  // 16
	return n
}

// linguisticBranch appends the linguistic analysis.
func (r *Registry) linguisticBranch(p *dataflow.Plan, n *dataflow.Node) *dataflow.Node {
	n = p.Add(r.Op("annotate_negation", nil), n) // 17
	n = p.Add(r.Op("annotate_pronouns", nil), n) // 18
	n = p.Add(r.Op("annotate_parens", nil), n)   // 19
	n = p.Add(r.Op("ling_stats", nil), n)        // 20
	n = p.Add(r.Op("count_chars", nil), n)       // 21
	n = p.Add(r.Op("project", meteor.Params{
		"keep": {Str: "id ling anns chars n_sentences n_tokens"}}), n) // 22
	return n
}

// entityBranch appends the biomedical content analysis.
func (r *Registry) entityBranch(p *dataflow.Plan, n *dataflow.Node) *dataflow.Node {
	n = p.Add(r.Op("pos_tag", nil), n) // 23
	for _, t := range []string{"gene", "drug", "disease"} {
		n = p.Add(r.Op("annotate_entities_dict", meteor.Params{"type": {Str: t}}), n) // 24-26
	}
	for _, t := range []string{"gene", "drug", "disease"} {
		n = p.Add(r.Op("annotate_entities_ml", meteor.Params{"type": {Str: t}}), n) // 27-29
	}
	n = p.Add(r.Op("merge_entities", nil), n)          // 30
	n = p.Add(r.Op("resolve_entity_overlaps", nil), n) // 31
	n = p.Add(r.Op("filter_tla_entities", nil), n)     // 32
	n = p.Add(r.Op("abbreviations", nil), n)           // 33
	n = p.Add(r.Op("entity_names", nil), n)            // 34
	n = p.Add(r.Op("count_entities", nil), n)          // 35
	n = p.Add(r.Op("project", meteor.Params{
		"keep": {Str: "id entities names n_entities abbrevs pos_failed n_sentences tla_removed"}}), n) // 36
	return n
}

func num(v float64) meteor.Value { return meteor.Value{Num: v, IsNum: true} }

// ConsolidatedFlow builds the full Fig 2 plan over web input: 38 operator
// nodes (11 web pretreatment + 5 shared NLP + 6 linguistic + 14 entity +
// source + final union).
func (r *Registry) ConsolidatedFlow() *dataflow.Plan { return r.AnalysisFlow(true) }

// RelationFlow builds the extension flow (beyond the paper's Fig 2) over
// clean text: entity extraction followed by trigger-based relation
// extraction — the direction the paper's conclusion calls "studying these
// sets in more detail will be the next step in our research".
func (r *Registry) RelationFlow() *dataflow.Plan {
	p := &dataflow.Plan{}
	n := r.nlpShared(p, p.Add(r.Op("identity", nil)))
	n = p.Add(r.Op("pos_tag", nil), n)
	for _, t := range []string{"gene", "drug", "disease"} {
		n = p.Add(r.Op("annotate_entities_dict", meteor.Params{"type": {Str: t}}), n)
		n = p.Add(r.Op("annotate_entities_ml", meteor.Params{"type": {Str: t}}), n)
	}
	n = p.Add(r.Op("merge_entities", nil), n)
	n = p.Add(r.Op("resolve_entity_overlaps", nil), n)
	n = p.Add(r.Op("filter_tla_entities", nil), n)
	n = p.Add(r.Op("annotate_relations", nil), n)
	n = p.Add(r.Op("count_relations", nil), n)
	p.Add(r.Op("project", meteor.Params{
		"keep": {Str: "id relations n_relations n_sentences"}}), n)
	return p
}

// ConsolidatedMeteorScript is a variant of the Fig 2 flow expressed in the
// Meteor dialect — the paper's headline usability claim made concrete. It
// compiles to 30 nodes with two sinks, one per branch ('linguistic' and
// 'entities'). It leaves out steps the 38-operator ConsolidatedFlow has:
// the counts, overlap resolution, abbreviations, entity names, the
// projections and the union.
const ConsolidatedMeteorScript = `
-- Fig 2: consolidated analysis flow for crawled web documents.
$pages  = read from 'crawl';
$sized  = filter_html_length $pages with max=2097152;
$txtish = mime_filter $sized;
$parsed = parse_html $txtish;
$fixed  = repair_markup $parsed;
$net    = boilerplate_detect $fixed;
$linked = extract_links $net;
$titled = extract_title $linked;
$en     = language_filter $titled with lang=en;
$norm   = normalize_whitespace $en;
$long   = filter_length $norm with min=100;
$uniq   = dedupe_exact $long;
$sents  = annotate_sentences $uniq;
$capped = filter_degenerate_sentences $sents with max_chars=600;
$toks   = annotate_tokens $capped;

-- linguistic analysis branch
$neg    = annotate_negation $toks;
$pron   = annotate_pronouns $neg;
$paren  = annotate_parens $pron;
$lstats = ling_stats $paren;
write $lstats to 'linguistic';

-- biomedical content analysis branch
$pos    = pos_tag $toks;
$dg     = annotate_entities_dict $pos  with type=gene;
$dd     = annotate_entities_dict $dg   with type=drug;
$ds     = annotate_entities_dict $dd   with type=disease;
$mg     = annotate_entities_ml   $ds   with type=gene;
$md     = annotate_entities_ml   $mg   with type=drug;
$ms     = annotate_entities_ml   $md   with type=disease;
$merged = merge_entities $ms;
$tlaok  = filter_tla_entities $merged;
write $tlaok to 'entities';
`

// --- Flow profiles for the simulated cluster ---

// PaperProfiles returns the flow profiles calibrated to the paper's
// reported constants: the 20-minute gene-dictionary load, the 6-20 GB
// dictionary footprints summing to ~34 GB for the entity flow and ~60 GB
// for the consolidated flow, annotation output of 1.2 TB (linguistic) and
// 0.4 TB (entities) per 1 TB input, and heavier skew for the entity flow.
func PaperProfiles() (linguistic, entity, consolidated cluster.FlowProfile) {
	linguistic = cluster.FlowProfile{
		Name: "linguistic", PerKBms: 0.2, StartupMs: 2000,
		MemPerWorkerGB: 0.5, OutputFactor: 1.2, Skew: 0.01,
	}
	entity = cluster.FlowProfile{
		Name: "entity", PerKBms: 1.4, StartupMs: 20 * 60 * 1000,
		MemPerWorkerGB: 20, OutputFactor: 0.4, Skew: 0.08,
	}
	consolidated = cluster.FlowProfile{
		Name: "consolidated", PerKBms: 1.6, StartupMs: 22 * 60 * 1000,
		MemPerWorkerGB: 60, OutputFactor: 1.6, Skew: 0.08,
		LibraryConflict: true, // OpenNLP 1.4 vs 1.5 (§4.2)
	}
	return linguistic, entity, consolidated
}
