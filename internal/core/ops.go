package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"webtextie/internal/boiler"
	"webtextie/internal/dataflow"
	"webtextie/internal/dedup"
	"webtextie/internal/htmlkit"
	"webtextie/internal/ie/crf"
	"webtextie/internal/langid"
	"webtextie/internal/ling"
	"webtextie/internal/meteor"
	"webtextie/internal/mimetype"
	"webtextie/internal/nlp"
	"webtextie/internal/obs"
	"webtextie/internal/relex"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// Record field conventions shared by all operators:
//
//	id        string              document identifier / URL
//	html      string              raw HTML (web documents)
//	html_page htmlkit.Page        html's one parse: blocks, repairs, links, title
//	links     []htmlkit.Link      the page's hyperlinks
//	title     string              the page's title
//	text      string              analysis text
//	mime      string              detected MIME type
//	lang      string              detected language
//	sentences []nlp.Span          sentence spans over text
//	tokens    [][]nlp.TokenSpan   per-sentence tokens
//	pos       [][]string          per-sentence POS tags
//	pos_failed int                sentences the tagger crashed on
//	anns      []ling.Annotation   linguistic annotations
//	ling_analysis lingAnalysis    ling.Analyze's output over id, text and sentences
//	ling      ling.DocStats       per-document linguistic measurements
//	entities  []EntityAnn         extracted entity mentions
//	crf_matches [][]crf.Match     every ML class's matches, in System.CRF order
//	relevant  bool                classifier decision
//	prob      float64             classifier posterior

// opRow declares one operator: its registry name and package, the
// annotations the optimizer reorders on (§3.1), and the function that does
// the work, in one of three shapes — dataflow.Keep for filters, an
// annotator for operators that fill fields, a raw dataflow.UDF for the few
// that emit 1:N or build a new record.
type opRow struct {
	name          string
	pkg           dataflow.Pkg
	filter        bool
	reads, writes []string
	sel           float64
	cost          dataflow.Cost
	// fn or edit is the work; operators that take parameters or keep
	// per-instance state set with or editWith instead, which builds it for
	// one statement.
	fn       dataflow.UDF
	edit     annotator
	with     func(meteor.Params) (dataflow.UDF, error)
	editWith func(meteor.Params) (annotator, error)
	// perRun marks a with whose work keeps state across records (a count,
	// a seen-set): the operator's Init builds it afresh for every Execute,
	// so a plan runs the same every time.
	perRun bool
}

// build resolves the row into the operator of one script statement.
func (row opRow) build(p meteor.Params) (*dataflow.Op, error) {
	fn, edit, err := row.fn, row.edit, error(nil)
	if row.with != nil {
		fn, err = row.with(p)
	} else if row.editWith != nil {
		edit, err = row.editWith(p)
	}
	if err != nil {
		return nil, err
	}
	op := &dataflow.Op{Name: row.name, Pkg: row.pkg, Fn: fn, Filter: row.filter,
		Reads: row.reads, Writes: row.writes, Selectivity: row.sel, Cost: row.cost}
	if edit != nil {
		edited(op, edit)
	}
	if row.perRun {
		op.Init = func() (err error) {
			op.Fn, err = row.with(p)
			return err
		}
	}
	return op, nil
}

// annotator is an operator's work on a record it may write: it fills the
// fields the operator declares in Writes, replacing values, never mutating
// them (see dataflow.Record.Clone).
type annotator func(dataflow.Record) error

// fill is the annotator of work that cannot fail.
func fill(f func(dataflow.Record)) annotator {
	return func(rec dataflow.Record) error { f(rec); return nil }
}

// edited gives op both forms of one annotator: InPlace, which
// dataflow.Execute runs on the record it owns, and Fn, its cloning form
// (dataflow.Edit) for every other caller. An executor's undo log cannot
// name the fields of a Writes of "*" (a script naming that field), so such
// an op keeps Fn only.
func edited(op *dataflow.Op, f annotator) *dataflow.Op {
	if !slices.Contains(op.Writes, "*") {
		op.InPlace = f
	}
	op.Fn = dataflow.Edit(f)
	return op
}

// opBuilder constructs an operator from parameters.
type opBuilder func(p meteor.Params) (*dataflow.Op, error)

// Registry resolves operator names for Meteor scripts and programmatic
// flow construction. It holds the trained components of a System.
type Registry struct {
	sys      *System
	builders map[string]opBuilder
	langID   *langid.Identifier
}

// Registry returns the system's operator registry: every row of the
// operator table, plus the operators whose metadata depends on parameters.
func (s *System) Registry() *Registry {
	r := &Registry{sys: s, builders: map[string]opBuilder{}, langID: langid.New()}
	for _, row := range r.table() {
		r.register(row.name, row.build)
	}
	r.registerParametric()
	return r
}

// Resolve implements meteor.Registry.
func (r *Registry) Resolve(name string, params meteor.Params) (*dataflow.Op, error) {
	b, ok := r.builders[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown operator %q", name)
	}
	return b(params)
}

// Op resolves an operator programmatically, panicking on unknown names —
// for the built-in flow constructors, where a miss is a programming error.
func (r *Registry) Op(name string, params meteor.Params) *dataflow.Op {
	if params == nil {
		params = meteor.Params{}
	}
	op, err := r.Resolve(name, params)
	if err != nil {
		panic(err)
	}
	return op
}

func (r *Registry) register(name string, b opBuilder) {
	if _, dup := r.builders[name]; dup {
		panic("core: duplicate operator " + name)
	}
	r.builders[name] = b
}

// --- field and parameter access ---

// get is the typed field accessor: the field's value, or T's zero value
// when the field is absent or holds another type.
func get[T any](rec dataflow.Record, field string) T {
	v, _ := rec[field].(T)
	return v
}

// intField reads a numeric field of any width (script-set values arrive as
// float64).
func intField(rec dataflow.Record, field string) int {
	switch v := rec[field].(type) {
	case int:
		return v
	case int64:
		return int(v)
	case float64:
		return int(v)
	}
	return 0
}

func paramStr(p meteor.Params, key, def string) string {
	if v, ok := p[key]; ok && v.Str != "" {
		return v.Str
	}
	return def
}

func paramNum(p meteor.Params, key string, def float64) float64 {
	if v, ok := p[key]; ok && v.IsNum {
		return v.Num
	}
	return def
}

var errNoParam = errors.New("core: missing required parameter")

// pass forwards every record unchanged.
var pass = dataflow.Keep(func(dataflow.Record) bool { return true })

// hashField is the FNV-1a hash of a string field.
func hashField(rec dataflow.Record, field string) uint64 {
	return obs.FNVString(get[string](rec, field))
}

// table is the operator inventory: one row per operator, in the four
// packages of §3.1.
func (r *Registry) table() []opRow {
	return []opRow{
		// --- BASE: general-purpose relational operators ---
		{name: "filter_length", pkg: dataflow.BASE, filter: true, reads: []string{"text"}, sel: 0.85, cost: dataflow.Cost{PerKBms: 0.001},
			with: func(p meteor.Params) (dataflow.UDF, error) {
				min, max := int(paramNum(p, "min", 0)), int(paramNum(p, "max", 1<<30))
				return dataflow.Keep(func(rec dataflow.Record) bool {
					n := len(get[string](rec, "text"))
					return n >= min && n <= max
				}), nil
			}},
		{name: "filter_html_length", pkg: dataflow.BASE, filter: true, reads: []string{"html"}, sel: 0.95, cost: dataflow.Cost{PerKBms: 0.001},
			with: func(p meteor.Params) (dataflow.UDF, error) {
				max := int(paramNum(p, "max", 1<<30))
				return dataflow.Keep(func(rec dataflow.Record) bool { return len(get[string](rec, "html")) <= max }), nil
			}},
		{name: "filter_empty_text", pkg: dataflow.BASE, filter: true, reads: []string{"text"}, sel: 0.95, cost: dataflow.Cost{PerKBms: 0.001},
			fn: dataflow.Keep(func(rec dataflow.Record) bool { return strings.TrimSpace(get[string](rec, "text")) != "" })},
		{name: "filter_min_sentences", pkg: dataflow.BASE, filter: true, reads: []string{"sentences"}, sel: 0.9, cost: dataflow.Cost{PerKBms: 0.001},
			with: func(p meteor.Params) (dataflow.UDF, error) {
				min := int(paramNum(p, "min", 1))
				return dataflow.Keep(func(rec dataflow.Record) bool { return len(get[[]nlp.Span](rec, "sentences")) >= min }), nil
			}},
		{name: "filter_field_exists", pkg: dataflow.BASE, filter: true, reads: []string{"*"}, sel: 0.9, cost: dataflow.Cost{PerKBms: 0.001},
			with: func(p meteor.Params) (dataflow.UDF, error) {
				field := paramStr(p, "field", "")
				return dataflow.Keep(func(rec dataflow.Record) bool {
					_, ok := rec[field]
					return ok
				}), nil
			}},
		{name: "filter_num_range", pkg: dataflow.BASE, filter: true, reads: []string{"*"}, sel: 0.7, cost: dataflow.Cost{PerKBms: 0.001},
			with: func(p meteor.Params) (dataflow.UDF, error) {
				field := paramStr(p, "field", "")
				min, max := int(paramNum(p, "min", -1<<30)), int(paramNum(p, "max", 1<<30))
				return dataflow.Keep(func(rec dataflow.Record) bool {
					v := intField(rec, field)
					return v >= min && v <= max
				}), nil
			}},
		{name: "limit", pkg: dataflow.BASE, filter: true, reads: []string{}, sel: 0.5, perRun: true,
			with: func(p meteor.Params) (dataflow.UDF, error) {
				max := int64(paramNum(p, "n", 1000))
				var seen atomic.Int64
				return dataflow.Keep(func(dataflow.Record) bool { return seen.Add(1) <= max }), nil
			}},
		{name: "project", pkg: dataflow.BASE, reads: []string{"*"}, writes: []string{"*"}, sel: 1,
			with: func(p meteor.Params) (dataflow.UDF, error) {
				keepList := paramStr(p, "keep", "")
				if keepList == "" {
					return nil, fmt.Errorf("project: %w: keep", errNoParam)
				}
				keep := map[string]bool{meteor.SourceField: true}
				for _, f := range strings.Split(keepList, " ") {
					keep[f] = true
				}
				return func(rec dataflow.Record, emit dataflow.Emit) error {
					out := dataflow.Record{}
					for k, v := range rec {
						if keep[k] {
							out[k] = v
						}
					}
					emit(out)
					return nil
				}, nil
			}},
		{name: "count_chars", pkg: dataflow.BASE, reads: []string{"text"}, writes: []string{"chars"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.005},
			edit: fill(func(rec dataflow.Record) { rec["chars"] = len(get[string](rec, "text")) })},
		{name: "count_words", pkg: dataflow.BASE, reads: []string{"text"}, writes: []string{"words"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.005},
			edit: fill(func(rec dataflow.Record) { rec["words"] = len(strings.Fields(get[string](rec, "text"))) })},
		{name: "count_sentences", pkg: dataflow.BASE, reads: []string{"sentences"}, writes: []string{"n_sentences"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.005},
			edit: fill(func(rec dataflow.Record) { rec["n_sentences"] = len(get[[]nlp.Span](rec, "sentences")) })},
		{name: "count_entities", pkg: dataflow.BASE, reads: []string{"entities"}, writes: []string{"n_entities"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.005},
			edit: fill(func(rec dataflow.Record) { rec["n_entities"] = len(get[[]EntityAnn](rec, "entities")) })},
		{name: "count_links", pkg: dataflow.BASE, reads: []string{"links"}, writes: []string{"n_links"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.005},
			edit: fill(func(rec dataflow.Record) { rec["n_links"] = len(get[[]htmlkit.Link](rec, "links")) })},
		{name: "identity", pkg: dataflow.BASE, reads: []string{}, writes: []string{}, sel: 1, fn: pass},
		{name: "union", pkg: dataflow.BASE, reads: []string{}, writes: []string{}, sel: 1, fn: pass},
		{name: "tag_source", pkg: dataflow.BASE, reads: []string{}, writes: []string{"source"}, sel: 1,
			editWith: func(p meteor.Params) (annotator, error) {
				v := paramStr(p, "value", "unknown")
				return fill(func(rec dataflow.Record) { rec["source"] = v }), nil
			}},
		{name: "hash_id", pkg: dataflow.BASE, reads: []string{"id"}, writes: []string{"hash"}, sel: 1,
			edit: fill(func(rec dataflow.Record) { rec["hash"] = int(hashField(rec, "id") & 0x7fffffff) })},
		{name: "lowercase_text", pkg: dataflow.BASE, reads: []string{"text"}, writes: []string{"text"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.01},
			edit: fill(func(rec dataflow.Record) { rec["text"] = strings.ToLower(get[string](rec, "text")) })},
		{name: "truncate_text", pkg: dataflow.BASE, reads: []string{"text"}, writes: []string{"text"}, sel: 1,
			editWith: func(p meteor.Params) (annotator, error) {
				max := int(paramNum(p, "max", 100000))
				return fill(func(rec dataflow.Record) {
					if t := get[string](rec, "text"); len(t) > max {
						rec["text"] = t[:max]
					}
				}), nil
			}},

		// --- WA: web analytics operators ---
		{name: "mime_detect", pkg: dataflow.WA, reads: []string{"id", "html"}, writes: []string{"mime"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.005},
			edit: fill(func(rec dataflow.Record) { rec["mime"] = string(detectMIME(rec)) })},
		{name: "mime_filter", pkg: dataflow.WA, filter: true, reads: []string{"id", "html"}, sel: 0.9, cost: dataflow.Cost{PerKBms: 0.005},
			fn: dataflow.Keep(func(rec dataflow.Record) bool { return detectMIME(rec).IsTextual() })},
		{name: "parse_html", pkg: dataflow.WA, reads: []string{"html"}, writes: []string{"html_page"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.05},
			edit: fill(func(rec dataflow.Record) { rec["html_page"] = htmlkit.Parse(get[string](rec, "html")) })},
		{name: "repair_markup", pkg: dataflow.WA, reads: []string{"html", "html_page"}, writes: []string{"repairs"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.03},
			edit: fill(func(rec dataflow.Record) { rec["repairs"] = htmlPage(rec).Repairs.Total() })},
		{name: "remove_markup", pkg: dataflow.WA, reads: []string{"html"}, writes: []string{"text"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.08},
			edit: fill(func(rec dataflow.Record) { rec["text"] = htmlkit.StripMarkup(get[string](rec, "html")) })},
		{name: "boilerplate_detect", pkg: dataflow.WA, reads: []string{"html", "html_page"}, writes: []string{"text", "blocks_total", "blocks_content", "repairs"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.1},
			editWith: func(p meteor.Params) (annotator, error) {
				c := boiler.Default()
				if paramNum(p, "keep_tables", 0) > 0 {
					c.KeepTables = true
				}
				return fill(func(rec dataflow.Record) {
					page := htmlPage(rec)
					res := c.FromBlocks(page.Blocks, page.Repairs)
					rec["text"] = res.NetText
					rec["blocks_total"] = res.TotalBlocks
					rec["blocks_content"] = res.ContentBlocks
					rec["repairs"] = res.RepairStats.Total()
				}), nil
			}},
		{name: "extract_links", pkg: dataflow.WA, reads: []string{"html", "html_page"}, writes: []string{"links"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.05},
			edit: fill(func(rec dataflow.Record) { rec["links"] = htmlPage(rec).Links })},
		{name: "extract_title", pkg: dataflow.WA, reads: []string{"html", "html_page"}, writes: []string{"title"}, sel: 1,
			edit: fill(func(rec dataflow.Record) { rec["title"] = htmlPage(rec).Title })},
		{name: "language_detect", pkg: dataflow.WA, reads: []string{"text"}, writes: []string{"lang", "lang_conf"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.05},
			edit: fill(func(rec dataflow.Record) {
				rec["lang"], rec["lang_conf"] = r.langID.Identify(get[string](rec, "text"))
			})},
		{name: "language_filter", pkg: dataflow.WA, filter: true, reads: []string{"text"}, sel: 0.85, cost: dataflow.Cost{PerKBms: 0.05},
			with: func(p meteor.Params) (dataflow.UDF, error) {
				want := paramStr(p, "lang", "en")
				return dataflow.Keep(func(rec dataflow.Record) bool {
					lang, conf := r.langID.Identify(get[string](rec, "text"))
					return lang == want && conf > 0.5
				}), nil
			}},
		{name: "url_host", pkg: dataflow.WA, reads: []string{"id"}, writes: []string{"host"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				// An id that is not a URL has the empty host.
				rec["host"], _, _ = synthweb.SplitURL(get[string](rec, "id"))
			})},
		{name: "strip_scripts", pkg: dataflow.WA, reads: []string{"html"}, writes: []string{"html"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				// Re-rendering without script bodies: the tokenizer already
				// drops raw-text content, so a simple strip suffices.
				var b strings.Builder
				for _, t := range htmlkit.Tokenize(get[string](rec, "html")) {
					if t.Type == htmlkit.Text {
						b.WriteString(t.Data)
						b.WriteByte(' ')
					}
				}
				rec["html"] = b.String()
			})},

		// --- DC: data cleansing operators ---
		{name: "dedupe_exact", pkg: dataflow.DC, filter: true, reads: []string{"text"}, sel: 0.95, perRun: true,
			with: func(meteor.Params) (dataflow.UDF, error) {
				var mu sync.Mutex
				seen := map[uint64]bool{}
				return dataflow.Keep(func(rec dataflow.Record) bool {
					k := hashField(rec, "text")
					mu.Lock()
					defer mu.Unlock()
					dup := seen[k]
					seen[k] = true
					return !dup
				}), nil
			}},
		{name: "dedupe_near", pkg: dataflow.DC, filter: true, reads: []string{"text", "id"}, sel: 0.95, perRun: true,
			cost: dataflow.Cost{PerKBms: 0.1},
			with: func(p meteor.Params) (dataflow.UDF, error) {
				idx := dedup.NewIndex(paramNum(p, "threshold", 0.8))
				return dataflow.Keep(func(rec dataflow.Record) bool {
					_, dup := idx.AddOrFind(get[string](rec, "id"), dedup.Sketch(get[string](rec, "text"), 3))
					return !dup
				}), nil
			}},
		{name: "normalize_whitespace", pkg: dataflow.DC, reads: []string{"text"}, writes: []string{"text"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.01},
			edit: fill(func(rec dataflow.Record) { rec["text"] = strings.Join(strings.Fields(get[string](rec, "text")), " ") })},
		{name: "remove_control_chars", pkg: dataflow.DC, reads: []string{"text"}, writes: []string{"text"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				rec["text"] = strings.Map(func(c rune) rune {
					if c < 32 && c != '\n' && c != '\t' {
						return -1
					}
					return c
				}, get[string](rec, "text"))
			})},
		{name: "classify_relevance", pkg: dataflow.DC, reads: []string{"text"}, writes: []string{"relevant", "prob"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.1},
			edit: fill(func(rec dataflow.Record) {
				clf := r.sys.Set.Classifier
				prob := clf.ProbRelevant(get[string](rec, "text"))
				rec["prob"] = prob
				rec["relevant"] = prob >= clf.Threshold
			})},
		{name: "relevance_filter", pkg: dataflow.DC, filter: true, reads: []string{"text"}, sel: 0.4, cost: dataflow.Cost{PerKBms: 0.1},
			with: func(p meteor.Params) (dataflow.UDF, error) {
				thresh := paramNum(p, "threshold", 0.5)
				return dataflow.Keep(func(rec dataflow.Record) bool {
					return r.sys.Set.Classifier.ProbRelevant(get[string](rec, "text")) >= thresh
				}), nil
			}},
		{name: "merge_entities", pkg: dataflow.DC, reads: []string{"entities"}, writes: []string{"entities"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				type key struct {
					t          textgen.EntityType
					m          Method
					start, end int
				}
				ents := get[[]EntityAnn](rec, "entities")
				seen := make(map[key]bool, len(ents))
				out := make([]EntityAnn, 0, len(ents))
				for _, e := range ents {
					k := key{e.Type, e.Method, e.Start, e.End}
					if !seen[k] {
						seen[k] = true
						out = append(out, e)
					}
				}
				slices.SortFunc(out, byStartEnd)
				rec["entities"] = out
			})},
		{name: "filter_tla_entities", pkg: dataflow.DC, reads: []string{"entities"}, writes: []string{"entities", "tla_removed"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				ents := get[[]EntityAnn](rec, "entities")
				out := make([]EntityAnn, 0, len(ents))
				var removed []EntityAnn
				for _, e := range ents {
					// The paper filters TLAs from ML gene annotations only
					// (§4.3.2); the removals are kept for Table 4, which
					// reports the unfiltered ML counts.
					if e.Method == ML && e.Type == textgen.Gene && isTLA(e.Surface) {
						removed = append(removed, e)
						continue
					}
					out = append(out, e)
				}
				rec["entities"] = out
				rec["tla_removed"] = removed
			})},
		{name: "resolve_entity_overlaps", pkg: dataflow.DC, reads: []string{"entities"}, writes: []string{"entities"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				// Sort a copy: the input slice is shared with every clone
				// of the record (fan-out, the dead letter, the undo log).
				// The mentions kept move to the copy's front. No start is
				// negative, so the first is always kept, and out is nil
				// only when there are none.
				out := append([]EntityAnn(nil), get[[]EntityAnn](rec, "entities")...)
				slices.SortFunc(out, byStartLongestFirst)
				n := 0
				lastEnd := map[Method]int{}
				for _, e := range out {
					if e.Start < lastEnd[e.Method] {
						continue
					}
					out[n] = e
					n++
					lastEnd[e.Method] = e.End
				}
				rec["entities"] = out[:n]
			})},
		{name: "trim_text", pkg: dataflow.DC, reads: []string{"text"}, writes: []string{"text"}, sel: 1,
			edit: fill(func(rec dataflow.Record) { rec["text"] = strings.TrimSpace(get[string](rec, "text")) })},

		// --- IE: information extraction operators ---
		{name: "annotate_sentences", pkg: dataflow.IE, reads: []string{"text"}, writes: []string{"sentences"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.02},
			edit: fill(func(rec dataflow.Record) { rec["sentences"] = nlp.SplitSentences(get[string](rec, "text")) })},
		{name: "annotate_tokens", pkg: dataflow.IE, reads: []string{"text", "sentences"}, writes: []string{"tokens"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.05},
			edit: fill(func(rec dataflow.Record) {
				text, spans := get[string](rec, "text"), get[[]nlp.Span](rec, "sentences")
				toks := make([][]nlp.TokenSpan, len(spans))
				for i, s := range spans {
					toks[i] = nlp.Tokenize(text[s.Start:s.End], s.Start)
				}
				rec["tokens"] = toks
			})},
		{name: "pos_tag", pkg: dataflow.IE, reads: []string{"tokens"}, writes: []string{"pos", "pos_failed"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.5},
			edit: fill(func(rec dataflow.Record) {
				// MedPost-style crash on a degenerate sentence: skip the
				// sentence, keep the document (§4.2/§5).
				rec["pos"], rec["pos_failed"], _ = r.tagSentences(rec)
			})},
		{name: "pos_tag_strict", pkg: dataflow.IE, reads: []string{"tokens"}, writes: []string{"pos"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.5},
			edit: func(rec dataflow.Record) error {
				pos, _, err := r.tagSentences(rec)
				if err != nil {
					return err // drops the whole document — the unpatched tool
				}
				rec["pos"] = pos
				return nil
			}},
		{name: "annotate_negation", pkg: dataflow.IE, reads: []string{"text", "sentences", "id", "anns", "ling_analysis"}, writes: []string{"anns", "ling_analysis"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.05},
			edit: annotateKind(ling.KindNegation)},
		{name: "annotate_pronouns", pkg: dataflow.IE, reads: []string{"text", "sentences", "id", "anns", "ling_analysis"}, writes: []string{"anns", "ling_analysis"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.05},
			edit: annotateKind(ling.KindPronoun)},
		{name: "annotate_parens", pkg: dataflow.IE, reads: []string{"text", "sentences", "id", "anns", "ling_analysis"}, writes: []string{"anns", "ling_analysis"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.05},
			edit: annotateKind(ling.KindParen)},
		{name: "ling_stats", pkg: dataflow.IE, reads: []string{"text", "id", "ling_analysis"}, writes: []string{"ling"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.15},
			edit: fill(func(rec dataflow.Record) {
				// The counts read no sentence index, so the annotators'
				// analysis of this text serves, whatever its spans.
				id, text := get[string](rec, "id"), get[string](rec, "text")
				if a, ok := rec["ling_analysis"].(lingAnalysis); ok && a.text == text {
					rec["ling"] = ling.Stats(id, text, nlp.SplitSentences(text), a.anns)
				} else {
					rec["ling"] = ling.Measure(id, text)
				}
			})},
		{name: "abbreviations", pkg: dataflow.IE, reads: []string{"text"}, writes: []string{"abbrevs"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				text := get[string](rec, "text")
				var abbrevs []string
				for i := 0; i+4 < len(text); i++ {
					if text[i] == '(' && text[i+4] == ')' && isTLA(text[i+1:i+4]) {
						abbrevs = append(abbrevs, text[i+1:i+4])
					}
				}
				rec["abbrevs"] = abbrevs
			})},
		{name: "sentence_lengths", pkg: dataflow.IE, reads: []string{"sentences"}, writes: []string{"sent_lengths"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				spans := get[[]nlp.Span](rec, "sentences")
				ls := make([]int, len(spans))
				for i, s := range spans {
					ls[i] = s.Len()
				}
				rec["sent_lengths"] = ls
			})},
		{name: "filter_degenerate_sentences", pkg: dataflow.IE, reads: []string{"text", "sentences"}, writes: []string{"text", "sentences"}, sel: 1,
			editWith: func(p meteor.Params) (annotator, error) {
				max := int(paramNum(p, "max_chars", 600))
				return fill(func(rec dataflow.Record) {
					// The §5 workaround: "we eventually had to define a hard
					// upper limit on the texts to be analyzed". Over-long
					// "sentences" (navigation residue, keyword soup) are cut
					// out of the analysis text entirely, so no downstream tool
					// — POS tagging or NER — ever sees them.
					text, spans := get[string](rec, "text"), get[[]nlp.Span](rec, "sentences")
					if !slices.ContainsFunc(spans, func(s nlp.Span) bool { return s.Len() > max }) {
						return
					}
					parts := make([]string, 0, len(spans))
					for _, s := range spans {
						if s.Len() <= max {
							parts = append(parts, text[s.Start:s.End])
						}
					}
					newText := strings.Join(parts, " ")
					rec["text"] = newText
					rec["sentences"] = nlp.SplitSentences(newText)
				}), nil
			}},
		{name: "token_count", pkg: dataflow.IE, reads: []string{"tokens"}, writes: []string{"n_tokens"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				n := 0
				for _, s := range get[[][]nlp.TokenSpan](rec, "tokens") {
					n += len(s)
				}
				rec["n_tokens"] = n
			})},
		{name: "split_sentence_records", pkg: dataflow.IE, reads: []string{"text", "sentences", "id"}, writes: []string{"*"},
			sel: 8, // 1:N — one output record per sentence
			fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				text, id := get[string](rec, "text"), get[string](rec, "id")
				for i, s := range get[[]nlp.Span](rec, "sentences") {
					emit(dataflow.Record{
						"id":       fmt.Sprintf("%s#s%d", id, i),
						"doc_id":   id,
						"sentence": i,
						"text":     text[s.Start:s.End],
					})
				}
				return nil
			}},
		{name: "keep_entities_by_method", pkg: dataflow.IE, reads: []string{"entities"}, writes: []string{"entities"}, sel: 1,
			editWith: func(p meteor.Params) (annotator, error) {
				m, ok := map[string]Method{"dict": Dict, "ml": ML}[paramStr(p, "method", "dict")]
				if !ok {
					return nil, fmt.Errorf("keep_entities_by_method: unknown method %q", paramStr(p, "method", ""))
				}
				return keepEntities(func(e EntityAnn) bool { return e.Method == m }), nil
			}},
		{name: "count_negations", pkg: dataflow.IE, reads: []string{"anns"}, writes: []string{"n_negations"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				rec["n_negations"] = countKind(get[[]ling.Annotation](rec, "anns"), ling.KindNegation)
			})},
		{name: "count_pronouns", pkg: dataflow.IE, reads: []string{"anns"}, writes: []string{"n_pronouns"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				rec["n_pronouns"] = countKind(get[[]ling.Annotation](rec, "anns"), ling.KindPronoun)
			})},
		{name: "entity_density", pkg: dataflow.IE, reads: []string{"entities", "sentences"}, writes: []string{"entities_per_ksent"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				d := 0.0
				if spans := get[[]nlp.Span](rec, "sentences"); len(spans) > 0 {
					d = 1000 * float64(len(get[[]EntityAnn](rec, "entities"))) / float64(len(spans))
				}
				rec["entities_per_ksent"] = d
			})},
		{name: "annotate_relations", pkg: dataflow.IE, reads: []string{"text", "sentences", "entities"}, writes: []string{"relations"}, sel: 1, cost: dataflow.Cost{PerKBms: 0.1},
			editWith: func(p meteor.Params) (annotator, error) {
				cfg := relex.DefaultConfig()
				if paramNum(p, "cooccurrence", 0) > 0 {
					cfg.RequireTrigger = false
				}
				if paramStr(p, "cross_type_only", "") == "true" {
					cfg.AllowSameType = false
				}
				if d := paramNum(p, "max_distance", 0); d > 0 {
					cfg.MaxPairDistance = int(d)
				}
				return fill(func(rec dataflow.Record) {
					var ms []relex.Mention
					seen := map[[2]int]bool{}
					for _, e := range get[[]EntityAnn](rec, "entities") {
						k := [2]int{e.Start, e.End}
						if seen[k] {
							continue // dictionary and ML agreeing on a span
						}
						seen[k] = true
						ms = append(ms, relex.Mention{
							Type: e.Type.String(), Start: e.Start, End: e.End,
							Surface: e.Surface,
						})
					}
					rec["relations"] = relex.Extract(get[string](rec, "text"), get[[]nlp.Span](rec, "sentences"), ms, cfg)
				}), nil
			}},
		{name: "count_relations", pkg: dataflow.IE, reads: []string{"relations"}, writes: []string{"n_relations"}, sel: 1,
			edit: fill(func(rec dataflow.Record) { rec["n_relations"] = len(get[[]relex.Relation](rec, "relations")) })},
		{name: "entity_names", pkg: dataflow.IE, reads: []string{"entities"}, writes: []string{"names"}, sel: 1,
			edit: fill(func(rec dataflow.Record) {
				// The distinct surfaces, sorted; nil when there are none.
				var names []string
				if ents := get[[]EntityAnn](rec, "entities"); len(ents) > 0 {
					names = make([]string, len(ents))
					for i, e := range ents {
						names[i] = e.Surface
					}
					slices.Sort(names)
				}
				rec["names"] = slices.Compact(names)
			})},
	}
}

// registerParametric registers the operators whose metadata — name suffix,
// read/write sets, selectivity or cost — depends on the statement's
// parameters, so that no fixed row can declare them.
func (r *Registry) registerParametric() {
	r.register("sample", func(p meteor.Params) (*dataflow.Op, error) {
		rate := paramNum(p, "rate", 0.1)
		return &dataflow.Op{Name: "sample", Pkg: dataflow.BASE, Filter: true,
			Reads: []string{"id"}, Selectivity: rate,
			Fn: dataflow.Keep(func(rec dataflow.Record) bool {
				return float64(hashField(rec, "id")%10000)/10000 < rate
			})}, nil
	})
	r.register("drop_field", func(p meteor.Params) (*dataflow.Op, error) {
		field := paramStr(p, "field", "")
		return edited(&dataflow.Op{Name: "drop_field", Pkg: dataflow.BASE,
			Reads: []string{}, Writes: []string{field}, Selectivity: 1},
			fill(func(rec dataflow.Record) { delete(rec, field) })), nil
	})
	r.register("rename_field", func(p meteor.Params) (*dataflow.Op, error) {
		from, to := paramStr(p, "from", ""), paramStr(p, "to", "")
		if from == "" || to == "" {
			return nil, fmt.Errorf("rename_field: %w: from/to", errNoParam)
		}
		return edited(&dataflow.Op{Name: "rename_field", Pkg: dataflow.BASE,
			Reads: []string{from}, Writes: []string{from, to}, Selectivity: 1},
			fill(func(rec dataflow.Record) {
				if v, ok := rec[from]; ok {
					rec[to] = v
					delete(rec, from)
				}
			})), nil
	})
	r.register("set_field", func(p meteor.Params) (*dataflow.Op, error) {
		field := paramStr(p, "field", "tag")
		var val any
		if v, ok := p["value"]; ok {
			if v.IsNum {
				val = v.Num
			} else {
				val = v.Str
			}
		}
		return edited(&dataflow.Op{Name: "set_field", Pkg: dataflow.BASE,
			Reads: []string{}, Writes: []string{field}, Selectivity: 1},
			fill(func(rec dataflow.Record) { rec[field] = val })), nil
	})

	r.register("annotate_entities_dict", func(p meteor.Params) (*dataflow.Op, error) {
		t, err := entityType(p)
		if err != nil {
			return nil, err
		}
		return edited(&dataflow.Op{Name: "annotate_entities_dict:" + t.String(), Pkg: dataflow.IE,
			Reads: []string{"text", "entities"}, Writes: []string{"entities"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.05}},
			fill(func(rec dataflow.Record) {
				rec["entities"] = withEntities(rec, r.sys.ExtractDict(t, get[string](rec, "text")))
			})), nil
	})
	r.register("annotate_entities_ml", func(p meteor.Params) (*dataflow.Op, error) {
		t, err := entityType(p)
		if err != nil {
			return nil, err
		}
		k := slices.Index(r.sys.CRF.Entities, t)
		return edited(&dataflow.Op{Name: "annotate_entities_ml:" + t.String(), Pkg: dataflow.IE,
			Reads: []string{"text", "tokens", "crf_matches", "entities"}, Writes: []string{"crf_matches", "entities"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 30}},
			func(rec dataflow.Record) error {
				// The first ML node of a chain decodes every class from the
				// record's tokens at once; the ones after it take their
				// class's matches from what it stored.
				ms, ok := rec["crf_matches"].([][]crf.Match)
				if !ok {
					toks, ok := rec["tokens"].([][]nlp.TokenSpan)
					if !ok {
						return errors.New("annotate_entities_ml: the record has no tokens")
					}
					ms = r.sys.CRF.Decode(get[string](rec, "text"), toks)
					rec["crf_matches"] = ms
				}
				rec["entities"] = withEntities(rec, mlAnns(t, ms[k]))
				return nil
			}), nil
	})
	r.register("keep_entities_of_type", func(p meteor.Params) (*dataflow.Op, error) {
		t, err := entityType(p)
		if err != nil {
			return nil, err
		}
		return edited(&dataflow.Op{Name: "keep_entities_of_type:" + t.String(), Pkg: dataflow.IE,
			Reads: []string{"entities"}, Writes: []string{"entities"}, Selectivity: 1},
			keepEntities(func(e EntityAnn) bool { return e.Type == t })), nil
	})
}

// entityType reads the entity class an operator is asked for.
func entityType(p meteor.Params) (textgen.EntityType, error) {
	switch paramStr(p, "type", "") {
	case "gene":
		return textgen.Gene, nil
	case "drug":
		return textgen.Drug, nil
	case "disease":
		return textgen.Disease, nil
	}
	return textgen.None, fmt.Errorf("annotate_entities: unknown type %q", paramStr(p, "type", ""))
}

// withEntities returns rec's entity list followed by found, in a new slice.
func withEntities(rec dataflow.Record, found []EntityAnn) []EntityAnn {
	ents := get[[]EntityAnn](rec, "entities")
	return append(append(make([]EntityAnn, 0, len(ents)+len(found)), ents...), found...)
}

// --- helpers shared by several rows ---

func detectMIME(rec dataflow.Record) mimetype.Type {
	return mimetype.Detect(get[string](rec, "id"), []byte(get[string](rec, "html")))
}

// htmlPage is the parse of the record's html: the page parse_html stored,
// or a fresh parse when there is none or it is of other HTML (an operator
// rewrote html after parse_html). On the normal path the two strings share
// one pointer, so comparing them costs nothing.
func htmlPage(rec dataflow.Record) htmlkit.Page {
	html := get[string](rec, "html")
	if p, ok := rec["html_page"].(htmlkit.Page); ok && p.Source == html {
		return p
	}
	return htmlkit.Parse(html)
}

func isTLA(s string) bool {
	if len(s) != 3 {
		return false
	}
	for i := 0; i < 3; i++ {
		if s[i] < 'A' || s[i] > 'Z' {
			return false
		}
	}
	return true
}

// keepEntities is the operator that narrows the entity list to pred.
func keepEntities(pred func(EntityAnn) bool) annotator {
	return fill(func(rec dataflow.Record) {
		ents := get[[]EntityAnn](rec, "entities")
		out := make([]EntityAnn, 0, len(ents))
		for _, e := range ents {
			if pred(e) {
				out = append(out, e)
			}
		}
		rec["entities"] = out
	})
}

// tagSentences POS-tags every sentence of the record. A sentence the tagger
// fails on is left untagged and counted; first is the first such failure.
// Tag keeps nothing of its argument, so one words buffer serves them all,
// on the stack unless a sentence outgrows it.
func (r *Registry) tagSentences(rec dataflow.Record) (pos [][]string, failed int, first error) {
	toks := get[[][]nlp.TokenSpan](rec, "tokens")
	pos = make([][]string, len(toks))
	words := make([]string, 0, 128)
	for i, sent := range toks {
		words = words[:0]
		for _, t := range sent {
			words = append(words, t.Text)
		}
		tags, err := r.sys.POS.Tag(words)
		if err != nil {
			if failed++; first == nil {
				first = err
			}
			continue
		}
		pos[i] = tags
	}
	return pos, failed, first
}

// byStartEnd orders entity mentions by start, then by end.
func byStartEnd(a, b EntityAnn) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
}

// byStartLongestFirst orders entity mentions by start, then the longest
// first.
func byStartLongestFirst(a, b EntityAnn) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(b.End-b.Start, a.End-a.Start))
}

// lingAnalysis is ling.Analyze's output with the id, text and sentence
// spans it was taken over.
type lingAnalysis struct {
	id, text  string
	sentences []nlp.Span
	anns      []ling.Annotation
}

// annotateKind is the operator that appends the document's linguistic
// annotations of one kind to anns. The first of the three annotators
// analyzes the document and stores the analysis as ling_analysis; the
// others take theirs from it unless the record's id, text or sentences
// are no longer the ones it was taken over (an operator rewrote or
// re-split the text since). On the normal path the strings share one
// pointer and the spans one array, so the test costs nothing.
func annotateKind(kind ling.Kind) annotator {
	return fill(func(rec dataflow.Record) {
		id, text, sents := get[string](rec, "id"), get[string](rec, "text"), get[[]nlp.Span](rec, "sentences")
		a, ok := rec["ling_analysis"].(lingAnalysis)
		if !ok || a.id != id || a.text != text || len(a.sentences) != len(sents) ||
			len(sents) > 0 && &a.sentences[0] != &sents[0] {
			a = lingAnalysis{id, text, sents, ling.Analyze(id, text, sents)}
			rec["ling_analysis"] = a
		}
		// Analyze returns each kind as one run.
		i := max(0, slices.IndexFunc(a.anns, func(x ling.Annotation) bool { return x.Kind == kind }))
		block, prev := a.anns[i:i+countKind(a.anns, kind)], get[[]ling.Annotation](rec, "anns")
		rec["anns"] = append(append(make([]ling.Annotation, 0, len(prev)+len(block)), prev...), block...)
	})
}

// countKind counts the annotations of one kind.
func countKind(anns []ling.Annotation, kind ling.Kind) (n int) {
	for _, a := range anns {
		if a.Kind == kind {
			n++
		}
	}
	return n
}
