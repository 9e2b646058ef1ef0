package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"webtextie/internal/annot"
	"webtextie/internal/boiler"
	"webtextie/internal/classify"
	"webtextie/internal/dataflow"
	"webtextie/internal/dedup"
	"webtextie/internal/htmlkit"
	"webtextie/internal/langid"
	"webtextie/internal/ling"
	"webtextie/internal/meteor"
	"webtextie/internal/mimetype"
	"webtextie/internal/nlp"
	"webtextie/internal/relex"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// Record field conventions shared by all operators:
//
//	id        string              document identifier / URL
//	html      string              raw HTML (web documents)
//	text      string              analysis text
//	mime      string              detected MIME type
//	lang      string              detected language
//	sentences []nlp.Span          sentence spans over text
//	tokens    [][]nlp.TokenSpan   per-sentence tokens
//	pos       [][]string          per-sentence POS tags
//	pos_failed int                sentences the tagger crashed on
//	anns      []annot.Annotation  linguistic annotations
//	ling      ling.DocStats       per-document linguistic measurements
//	entities  []EntityAnn         extracted entity mentions
//	relevant  bool                classifier decision
//	prob      float64             classifier posterior

// opBuilder constructs an operator from parameters.
type opBuilder func(p meteor.Params) (*dataflow.Op, error)

// Registry resolves operator names for Meteor scripts and programmatic
// flow construction. It holds the trained components of a System.
type Registry struct {
	sys      *System
	builders map[string]opBuilder
	langID   *langid.Identifier
}

// Registry returns the system's operator registry.
func (s *System) Registry() *Registry {
	r := &Registry{sys: s, builders: map[string]opBuilder{}, langID: langid.New()}
	r.registerBase()
	r.registerWA()
	r.registerDC()
	r.registerIE()
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

// Names returns all registered operator names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.builders))
	for n := range r.builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
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

// --- field access helpers ---

func strField(rec dataflow.Record, field string) string {
	if v, ok := rec[field].(string); ok {
		return v
	}
	return ""
}

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

func withField(rec dataflow.Record, field string, v any) dataflow.Record {
	out := rec.Clone()
	out[field] = v
	return out
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

// --- BASE package: general-purpose relational operators ---

func (r *Registry) registerBase() {
	simpleFilter := func(name string, sel float64, reads []string, keep func(dataflow.Record, meteor.Params) bool) {
		r.register(name, func(p meteor.Params) (*dataflow.Op, error) {
			return &dataflow.Op{Name: name, Pkg: dataflow.BASE, Filter: true,
				Reads: reads, Selectivity: sel, Cost: dataflow.Cost{PerKBms: 0.001},
				Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
					if keep(rec, p) {
						emit(rec)
					}
					return nil
				}}, nil
		})
	}

	simpleFilter("filter_length", 0.85, []string{"text"}, func(rec dataflow.Record, p meteor.Params) bool {
		n := len(strField(rec, "text"))
		min := int(paramNum(p, "min", 0))
		max := int(paramNum(p, "max", 1<<30))
		return n >= min && n <= max
	})
	simpleFilter("filter_html_length", 0.95, []string{"html"}, func(rec dataflow.Record, p meteor.Params) bool {
		n := len(strField(rec, "html"))
		return n <= int(paramNum(p, "max", 1<<30))
	})
	simpleFilter("filter_empty_text", 0.95, []string{"text"}, func(rec dataflow.Record, p meteor.Params) bool {
		return strings.TrimSpace(strField(rec, "text")) != ""
	})
	simpleFilter("filter_min_sentences", 0.9, []string{"sentences"}, func(rec dataflow.Record, p meteor.Params) bool {
		spans, _ := rec["sentences"].([]nlp.Span)
		return len(spans) >= int(paramNum(p, "min", 1))
	})
	simpleFilter("filter_field_exists", 0.9, []string{"*"}, func(rec dataflow.Record, p meteor.Params) bool {
		_, ok := rec[paramStr(p, "field", "")]
		return ok
	})
	simpleFilter("filter_num_range", 0.7, []string{"*"}, func(rec dataflow.Record, p meteor.Params) bool {
		v := intField(rec, paramStr(p, "field", ""))
		return v >= int(paramNum(p, "min", -1<<30)) && v <= int(paramNum(p, "max", 1<<30))
	})

	r.register("sample", func(p meteor.Params) (*dataflow.Op, error) {
		rate := paramNum(p, "rate", 0.1)
		return &dataflow.Op{Name: "sample", Pkg: dataflow.BASE, Filter: true,
			Reads: []string{"id"}, Selectivity: rate,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				h := fnv.New64a()
				h.Write([]byte(strField(rec, "id")))
				if float64(h.Sum64()%10000)/10000 < rate {
					emit(rec)
				}
				return nil
			}}, nil
	})

	r.register("limit", func(p meteor.Params) (*dataflow.Op, error) {
		max := int64(paramNum(p, "n", 1000))
		var seen atomic.Int64
		return &dataflow.Op{Name: "limit", Pkg: dataflow.BASE, Filter: true,
			Reads: []string{}, Selectivity: 0.5,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				if seen.Add(1) <= max {
					emit(rec)
				}
				return nil
			}}, nil
	})

	r.register("project", func(p meteor.Params) (*dataflow.Op, error) {
		keepList := paramStr(p, "keep", "")
		if keepList == "" {
			return nil, fmt.Errorf("project: %w: keep", errNoParam)
		}
		keep := map[string]bool{}
		for _, f := range strings.Split(keepList, " ") {
			keep[f] = true
		}
		return &dataflow.Op{Name: "project", Pkg: dataflow.BASE,
			Reads: []string{"*"}, Writes: []string{"*"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				out := dataflow.Record{}
				for k, v := range rec {
					if keep[k] || k == meteor.SourceField {
						out[k] = v
					}
				}
				emit(out)
				return nil
			}}, nil
	})

	r.register("drop_field", func(p meteor.Params) (*dataflow.Op, error) {
		field := paramStr(p, "field", "")
		return &dataflow.Op{Name: "drop_field", Pkg: dataflow.BASE,
			Reads: []string{}, Writes: []string{field}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				out := rec.Clone()
				delete(out, field)
				emit(out)
				return nil
			}}, nil
	})

	r.register("rename_field", func(p meteor.Params) (*dataflow.Op, error) {
		from, to := paramStr(p, "from", ""), paramStr(p, "to", "")
		if from == "" || to == "" {
			return nil, fmt.Errorf("rename_field: %w: from/to", errNoParam)
		}
		return &dataflow.Op{Name: "rename_field", Pkg: dataflow.BASE,
			Reads: []string{from}, Writes: []string{from, to}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				out := rec.Clone()
				if v, ok := out[from]; ok {
					out[to] = v
					delete(out, from)
				}
				emit(out)
				return nil
			}}, nil
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
		return &dataflow.Op{Name: "set_field", Pkg: dataflow.BASE,
			Reads: []string{}, Writes: []string{field}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, field, val))
				return nil
			}}, nil
	})

	countOp := func(name, reads, writes string, count func(dataflow.Record) int) {
		r.register(name, func(p meteor.Params) (*dataflow.Op, error) {
			return &dataflow.Op{Name: name, Pkg: dataflow.BASE,
				Reads: []string{reads}, Writes: []string{writes}, Selectivity: 1,
				Cost: dataflow.Cost{PerKBms: 0.005},
				Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
					emit(withField(rec, writes, count(rec)))
					return nil
				}}, nil
		})
	}
	countOp("count_chars", "text", "chars", func(rec dataflow.Record) int {
		return len(strField(rec, "text"))
	})
	countOp("count_words", "text", "words", func(rec dataflow.Record) int {
		return len(strings.Fields(strField(rec, "text")))
	})
	countOp("count_sentences", "sentences", "n_sentences", func(rec dataflow.Record) int {
		spans, _ := rec["sentences"].([]nlp.Span)
		return len(spans)
	})
	countOp("count_entities", "entities", "n_entities", func(rec dataflow.Record) int {
		ents, _ := rec["entities"].([]EntityAnn)
		return len(ents)
	})
	countOp("count_links", "links", "n_links", func(rec dataflow.Record) int {
		links, _ := rec["links"].([]htmlkit.Link)
		return len(links)
	})

	r.register("identity", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "identity", Pkg: dataflow.BASE,
			Reads: []string{}, Writes: []string{}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(rec)
				return nil
			}}, nil
	})
	r.register("union", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "union", Pkg: dataflow.BASE,
			Reads: []string{}, Writes: []string{}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(rec)
				return nil
			}}, nil
	})
	r.register("tag_source", func(p meteor.Params) (*dataflow.Op, error) {
		v := paramStr(p, "value", "unknown")
		return &dataflow.Op{Name: "tag_source", Pkg: dataflow.BASE,
			Reads: []string{}, Writes: []string{"source"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, "source", v))
				return nil
			}}, nil
	})
	r.register("hash_id", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "hash_id", Pkg: dataflow.BASE,
			Reads: []string{"id"}, Writes: []string{"hash"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				h := fnv.New64a()
				h.Write([]byte(strField(rec, "id")))
				emit(withField(rec, "hash", int(h.Sum64()&0x7fffffff)))
				return nil
			}}, nil
	})
	r.register("lowercase_text", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "lowercase_text", Pkg: dataflow.BASE,
			Reads: []string{"text"}, Writes: []string{"text"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.01},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, "text", strings.ToLower(strField(rec, "text"))))
				return nil
			}}, nil
	})
	r.register("truncate_text", func(p meteor.Params) (*dataflow.Op, error) {
		max := int(paramNum(p, "max", 100000))
		return &dataflow.Op{Name: "truncate_text", Pkg: dataflow.BASE,
			Reads: []string{"text"}, Writes: []string{"text"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				t := strField(rec, "text")
				if len(t) > max {
					emit(withField(rec, "text", t[:max]))
				} else {
					emit(rec)
				}
				return nil
			}}, nil
	})
}

// --- WA package: web analytics operators ---

func (r *Registry) registerWA() {
	r.register("mime_detect", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "mime_detect", Pkg: dataflow.WA,
			Reads: []string{"id", "html"}, Writes: []string{"mime"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.005},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				mt := mimetype.Detect(strField(rec, "id"), []byte(strField(rec, "html")))
				emit(withField(rec, "mime", string(mt)))
				return nil
			}}, nil
	})
	r.register("mime_filter", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "mime_filter", Pkg: dataflow.WA, Filter: true,
			Reads: []string{"id", "html"}, Selectivity: 0.9,
			Cost: dataflow.Cost{PerKBms: 0.005},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				if mimetype.Detect(strField(rec, "id"), []byte(strField(rec, "html"))).IsTextual() {
					emit(rec)
				}
				return nil
			}}, nil
	})
	r.register("parse_html", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "parse_html", Pkg: dataflow.WA,
			Reads: []string{"html"}, Writes: []string{"html_tokens"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.05},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, "html_tokens", htmlkit.Tokenize(strField(rec, "html"))))
				return nil
			}}, nil
	})
	r.register("repair_markup", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "repair_markup", Pkg: dataflow.WA,
			Reads: []string{"html_tokens"}, Writes: []string{"html_tokens", "repairs"},
			Selectivity: 1, Cost: dataflow.Cost{PerKBms: 0.03},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				toks, _ := rec["html_tokens"].([]htmlkit.Token)
				repaired, stats := htmlkit.Repair(toks)
				out := rec.Clone()
				out["html_tokens"] = repaired
				out["repairs"] = stats.Total()
				emit(out)
				return nil
			}}, nil
	})
	r.register("remove_markup", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "remove_markup", Pkg: dataflow.WA,
			Reads: []string{"html"}, Writes: []string{"text"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.08},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, "text", htmlkit.StripMarkup(strField(rec, "html"))))
				return nil
			}}, nil
	})
	r.register("boilerplate_detect", func(p meteor.Params) (*dataflow.Op, error) {
		c := boiler.Default()
		if paramNum(p, "keep_tables", 0) > 0 {
			c.KeepTables = true
		}
		return &dataflow.Op{Name: "boilerplate_detect", Pkg: dataflow.WA,
			Reads:       []string{"html"},
			Writes:      []string{"text", "blocks_total", "blocks_content", "repairs"},
			Selectivity: 1, Cost: dataflow.Cost{PerKBms: 0.1},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				res := c.Extract(strField(rec, "html"))
				out := rec.Clone()
				out["text"] = res.NetText
				out["blocks_total"] = res.TotalBlocks
				out["blocks_content"] = res.ContentBlocks
				out["repairs"] = res.RepairStats.Total()
				emit(out)
				return nil
			}}, nil
	})
	r.register("extract_links", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "extract_links", Pkg: dataflow.WA,
			Reads: []string{"html"}, Writes: []string{"links"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.05},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, "links", htmlkit.ExtractLinks(htmlkit.Tokenize(strField(rec, "html")))))
				return nil
			}}, nil
	})
	r.register("extract_title", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "extract_title", Pkg: dataflow.WA,
			Reads: []string{"html"}, Writes: []string{"title"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, "title", htmlkit.Title(htmlkit.Tokenize(strField(rec, "html")))))
				return nil
			}}, nil
	})
	r.register("language_detect", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "language_detect", Pkg: dataflow.WA,
			Reads: []string{"text"}, Writes: []string{"lang", "lang_conf"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.05},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				lang, conf := r.langID.Identify(strField(rec, "text"))
				out := rec.Clone()
				out["lang"] = lang
				out["lang_conf"] = conf
				emit(out)
				return nil
			}}, nil
	})
	r.register("language_filter", func(p meteor.Params) (*dataflow.Op, error) {
		want := paramStr(p, "lang", "en")
		return &dataflow.Op{Name: "language_filter", Pkg: dataflow.WA, Filter: true,
			Reads: []string{"text"}, Selectivity: 0.85,
			Cost: dataflow.Cost{PerKBms: 0.05},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				lang, conf := r.langID.Identify(strField(rec, "text"))
				if lang == want && conf > 0.5 {
					emit(rec)
				}
				return nil
			}}, nil
	})
	r.register("url_host", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "url_host", Pkg: dataflow.WA,
			Reads: []string{"id"}, Writes: []string{"host"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				host, _, err := synthweb.SplitURL(strField(rec, "id"))
				if err != nil {
					host = ""
				}
				emit(withField(rec, "host", host))
				return nil
			}}, nil
	})
	r.register("strip_scripts", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "strip_scripts", Pkg: dataflow.WA,
			Reads: []string{"html"}, Writes: []string{"html"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				toks := htmlkit.Tokenize(strField(rec, "html"))
				// Re-rendering without script bodies: the tokenizer already
				// drops raw-text content, so a simple strip suffices.
				var b strings.Builder
				for _, t := range toks {
					if t.Type == htmlkit.Text {
						b.WriteString(t.Data)
						b.WriteByte(' ')
					}
				}
				emit(withField(rec, "html", b.String()))
				return nil
			}}, nil
	})
}

// --- DC package: data cleansing operators ---

func (r *Registry) registerDC() {
	r.register("dedupe_exact", func(p meteor.Params) (*dataflow.Op, error) {
		var mu sync.Mutex
		seen := map[uint64]bool{}
		return &dataflow.Op{Name: "dedupe_exact", Pkg: dataflow.DC, Filter: true,
			Reads: []string{"text"}, Selectivity: 0.95,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				h := fnv.New64a()
				h.Write([]byte(strField(rec, "text")))
				k := h.Sum64()
				mu.Lock()
				dup := seen[k]
				seen[k] = true
				mu.Unlock()
				if !dup {
					emit(rec)
				}
				return nil
			}}, nil
	})
	r.register("dedupe_near", func(p meteor.Params) (*dataflow.Op, error) {
		threshold := paramNum(p, "threshold", 0.8)
		idx := dedup.NewIndex(threshold)
		return &dataflow.Op{Name: "dedupe_near", Pkg: dataflow.DC, Filter: true,
			Reads: []string{"text", "id"}, Selectivity: 0.95,
			Cost: dataflow.Cost{PerKBms: 0.1, MemoryBytes: 256 << 20},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				sig := dedup.Sketch(strField(rec, "text"), 3)
				if _, dup := idx.AddOrFind(strField(rec, "id"), sig); !dup {
					emit(rec)
				}
				return nil
			}}, nil
	})
	r.register("normalize_whitespace", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "normalize_whitespace", Pkg: dataflow.DC,
			Reads: []string{"text"}, Writes: []string{"text"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.01},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, "text", strings.Join(strings.Fields(strField(rec, "text")), " ")))
				return nil
			}}, nil
	})
	r.register("remove_control_chars", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "remove_control_chars", Pkg: dataflow.DC,
			Reads: []string{"text"}, Writes: []string{"text"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				cleaned := strings.Map(func(c rune) rune {
					if c < 32 && c != '\n' && c != '\t' {
						return -1
					}
					return c
				}, strField(rec, "text"))
				emit(withField(rec, "text", cleaned))
				return nil
			}}, nil
	})
	r.register("classify_relevance", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "classify_relevance", Pkg: dataflow.DC,
			Reads: []string{"text"}, Writes: []string{"relevant", "prob"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.1, MemoryBytes: 64 << 20},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				prob := r.sys.Set.Classifier.ProbRelevant(strField(rec, "text"))
				out := rec.Clone()
				out["prob"] = prob
				out["relevant"] = r.sys.Set.Classifier.Classify(strField(rec, "text")) == classify.Relevant
				emit(out)
				return nil
			}}, nil
	})
	r.register("relevance_filter", func(p meteor.Params) (*dataflow.Op, error) {
		thresh := paramNum(p, "threshold", 0.5)
		return &dataflow.Op{Name: "relevance_filter", Pkg: dataflow.DC, Filter: true,
			Reads: []string{"text"}, Selectivity: 0.4,
			Cost: dataflow.Cost{PerKBms: 0.1, MemoryBytes: 64 << 20},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				if r.sys.Set.Classifier.ProbRelevant(strField(rec, "text")) >= thresh {
					emit(rec)
				}
				return nil
			}}, nil
	})
	r.register("merge_entities", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "merge_entities", Pkg: dataflow.DC,
			Reads: []string{"entities"}, Writes: []string{"entities"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				ents, _ := rec["entities"].([]EntityAnn)
				type key struct {
					t          textgen.EntityType
					m          Method
					start, end int
				}
				seen := map[key]bool{}
				out := make([]EntityAnn, 0, len(ents))
				for _, e := range ents {
					k := key{e.Type, e.Method, e.Start, e.End}
					if !seen[k] {
						seen[k] = true
						out = append(out, e)
					}
				}
				sort.Slice(out, func(i, j int) bool {
					if out[i].Start != out[j].Start {
						return out[i].Start < out[j].Start
					}
					return out[i].End < out[j].End
				})
				emit(withField(rec, "entities", out))
				return nil
			}}, nil
	})
	r.register("filter_tla_entities", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "filter_tla_entities", Pkg: dataflow.DC,
			Reads: []string{"entities"}, Writes: []string{"entities", "tla_removed"},
			Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				ents, _ := rec["entities"].([]EntityAnn)
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
				o := rec.Clone()
				o["entities"] = out
				o["tla_removed"] = removed
				emit(o)
				return nil
			}}, nil
	})
	r.register("resolve_entity_overlaps", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "resolve_entity_overlaps", Pkg: dataflow.DC,
			Reads: []string{"entities"}, Writes: []string{"entities"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				ents, _ := rec["entities"].([]EntityAnn)
				sort.Slice(ents, func(i, j int) bool {
					if ents[i].Start != ents[j].Start {
						return ents[i].Start < ents[j].Start
					}
					return ents[i].End-ents[i].Start > ents[j].End-ents[j].Start
				})
				var out []EntityAnn
				lastEnd := map[Method]int{}
				for _, e := range ents {
					if e.Start < lastEnd[e.Method] {
						continue
					}
					out = append(out, e)
					lastEnd[e.Method] = e.End
				}
				emit(withField(rec, "entities", out))
				return nil
			}}, nil
	})
	r.register("trim_text", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "trim_text", Pkg: dataflow.DC,
			Reads: []string{"text"}, Writes: []string{"text"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, "text", strings.TrimSpace(strField(rec, "text"))))
				return nil
			}}, nil
	})
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

// --- IE package: information extraction operators ---

func (r *Registry) registerIE() {
	r.register("annotate_sentences", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "annotate_sentences", Pkg: dataflow.IE,
			Reads: []string{"text"}, Writes: []string{"sentences"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.02},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, "sentences", nlp.SplitSentences(strField(rec, "text"))))
				return nil
			}}, nil
	})
	r.register("annotate_tokens", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "annotate_tokens", Pkg: dataflow.IE,
			Reads: []string{"text", "sentences"}, Writes: []string{"tokens"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.05},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				text := strField(rec, "text")
				spans, _ := rec["sentences"].([]nlp.Span)
				toks := make([][]nlp.TokenSpan, len(spans))
				for i, s := range spans {
					toks[i] = nlp.Tokenize(text[s.Start:s.End], s.Start)
				}
				emit(withField(rec, "tokens", toks))
				return nil
			}}, nil
	})
	r.register("pos_tag", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "pos_tag", Pkg: dataflow.IE,
			Reads: []string{"tokens"}, Writes: []string{"pos", "pos_failed"},
			Selectivity: 1,
			Cost:        dataflow.Cost{PerKBms: 0.5, StartupMs: 1500, MemoryBytes: 256 << 20},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				toks, _ := rec["tokens"].([][]nlp.TokenSpan)
				pos := make([][]string, len(toks))
				failed := 0
				for i, sent := range toks {
					tags, err := r.sys.POS.Tag(tokenTexts(sent))
					if err != nil {
						// MedPost-style crash on a degenerate sentence: skip
						// the sentence, keep the document (§4.2/§5).
						failed++
						continue
					}
					pos[i] = tags
				}
				out := rec.Clone()
				out["pos"] = pos
				out["pos_failed"] = failed
				emit(out)
				return nil
			}}, nil
	})
	r.register("pos_tag_strict", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "pos_tag_strict", Pkg: dataflow.IE,
			Reads: []string{"tokens"}, Writes: []string{"pos"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.5, StartupMs: 1500, MemoryBytes: 256 << 20},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				toks, _ := rec["tokens"].([][]nlp.TokenSpan)
				pos := make([][]string, len(toks))
				for i, sent := range toks {
					tags, err := r.sys.POS.Tag(tokenTexts(sent))
					if err != nil {
						return err // drops the whole document — the unpatched tool
					}
					pos[i] = tags
				}
				emit(withField(rec, "pos", pos))
				return nil
			}}, nil
	})

	lingOp := func(name string, kind annot.Kind) {
		r.register(name, func(p meteor.Params) (*dataflow.Op, error) {
			return &dataflow.Op{Name: name, Pkg: dataflow.IE,
				Reads: []string{"text", "sentences", "id"}, Writes: []string{"anns"},
				Selectivity: 1, Cost: dataflow.Cost{PerKBms: 0.05},
				Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
					text := strField(rec, "text")
					spans, _ := rec["sentences"].([]nlp.Span)
					all := ling.Analyze(strField(rec, "id"), text, spans)
					prev, _ := rec["anns"].([]annot.Annotation)
					out := append(append([]annot.Annotation{}, prev...), filterKind(all, kind)...)
					emit(withField(rec, "anns", out))
					return nil
				}}, nil
		})
	}
	lingOp("annotate_negation", annot.KindNegation)
	lingOp("annotate_pronouns", annot.KindPronoun)
	lingOp("annotate_parens", annot.KindParen)

	r.register("ling_stats", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "ling_stats", Pkg: dataflow.IE,
			Reads: []string{"text", "id"}, Writes: []string{"ling"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 0.15},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				emit(withField(rec, "ling", ling.Measure(strField(rec, "id"), strField(rec, "text"))))
				return nil
			}}, nil
	})

	entityType := func(p meteor.Params) (textgen.EntityType, error) {
		switch paramStr(p, "type", "") {
		case "gene":
			return textgen.Gene, nil
		case "drug":
			return textgen.Drug, nil
		case "disease":
			return textgen.Disease, nil
		default:
			return textgen.None, fmt.Errorf("annotate_entities: unknown type %q", paramStr(p, "type", ""))
		}
	}
	r.register("annotate_entities_dict", func(p meteor.Params) (*dataflow.Op, error) {
		t, err := entityType(p)
		if err != nil {
			return nil, err
		}
		m := r.sys.DictMatchers[t]
		st := m.Stats()
		return &dataflow.Op{Name: "annotate_entities_dict:" + t.String(), Pkg: dataflow.IE,
			Reads: []string{"text", "entities"}, Writes: []string{"entities"}, Selectivity: 1,
			Cost: dataflow.Cost{
				PerKBms:   0.05,
				StartupMs: paperScaledStartupMs(t),
				// The expanded automaton footprint, extrapolated to the
				// paper's dictionary sizes (6-20 GB per worker, §4.2).
				MemoryBytes: paperScaledMemory(t, st.ApproxBytes()),
			},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				prev, _ := rec["entities"].([]EntityAnn)
				found := r.sys.ExtractDict(t, strField(rec, "text"))
				emit(withField(rec, "entities", append(append([]EntityAnn{}, prev...), found...)))
				return nil
			}}, nil
	})
	r.register("annotate_entities_ml", func(p meteor.Params) (*dataflow.Op, error) {
		t, err := entityType(p)
		if err != nil {
			return nil, err
		}
		return &dataflow.Op{Name: "annotate_entities_ml:" + t.String(), Pkg: dataflow.IE,
			Reads: []string{"text", "entities"}, Writes: []string{"entities"}, Selectivity: 1,
			Cost: dataflow.Cost{PerKBms: 30, StartupMs: 10000, MemoryBytes: 2 << 30},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				prev, _ := rec["entities"].([]EntityAnn)
				found := r.sys.ExtractML(t, strField(rec, "text"))
				emit(withField(rec, "entities", append(append([]EntityAnn{}, prev...), found...)))
				return nil
			}}, nil
	})
	r.register("abbreviations", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "abbreviations", Pkg: dataflow.IE,
			Reads: []string{"text"}, Writes: []string{"abbrevs"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				text := strField(rec, "text")
				var abbrevs []string
				for i := 0; i+4 < len(text); i++ {
					if text[i] == '(' && i+4 < len(text) && text[i+4] == ')' &&
						isTLA(text[i+1:i+4]) {
						abbrevs = append(abbrevs, text[i+1:i+4])
					}
				}
				emit(withField(rec, "abbrevs", abbrevs))
				return nil
			}}, nil
	})
	r.register("sentence_lengths", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "sentence_lengths", Pkg: dataflow.IE,
			Reads: []string{"sentences"}, Writes: []string{"sent_lengths"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				spans, _ := rec["sentences"].([]nlp.Span)
				ls := make([]int, len(spans))
				for i, s := range spans {
					ls[i] = s.Len()
				}
				emit(withField(rec, "sent_lengths", ls))
				return nil
			}}, nil
	})
	r.register("filter_degenerate_sentences", func(p meteor.Params) (*dataflow.Op, error) {
		max := int(paramNum(p, "max_chars", 600))
		return &dataflow.Op{Name: "filter_degenerate_sentences", Pkg: dataflow.IE,
			Reads: []string{"text", "sentences"}, Writes: []string{"text", "sentences"},
			Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				// The §5 workaround: "we eventually had to define a hard
				// upper limit on the texts to be analyzed". Over-long
				// "sentences" (navigation residue, keyword soup) are cut
				// out of the analysis text entirely, so no downstream tool
				// — POS tagging or NER — ever sees them.
				text := strField(rec, "text")
				spans, _ := rec["sentences"].([]nlp.Span)
				dropped := false
				var parts []string
				for _, s := range spans {
					if s.Len() <= max {
						parts = append(parts, text[s.Start:s.End])
					} else {
						dropped = true
					}
				}
				if !dropped {
					emit(rec)
					return nil
				}
				newText := strings.Join(parts, " ")
				out := rec.Clone()
				out["text"] = newText
				out["sentences"] = nlp.SplitSentences(newText)
				emit(out)
				return nil
			}}, nil
	})
	r.register("token_count", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "token_count", Pkg: dataflow.IE,
			Reads: []string{"tokens"}, Writes: []string{"n_tokens"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				toks, _ := rec["tokens"].([][]nlp.TokenSpan)
				n := 0
				for _, s := range toks {
					n += len(s)
				}
				emit(withField(rec, "n_tokens", n))
				return nil
			}}, nil
	})
	r.register("split_sentence_records", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "split_sentence_records", Pkg: dataflow.IE,
			Reads: []string{"text", "sentences", "id"}, Writes: []string{"*"},
			Selectivity: 8, // 1:N — one output record per sentence
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				text := strField(rec, "text")
				spans, _ := rec["sentences"].([]nlp.Span)
				id := strField(rec, "id")
				for i, s := range spans {
					emit(dataflow.Record{
						"id":       fmt.Sprintf("%s#s%d", id, i),
						"doc_id":   id,
						"sentence": i,
						"text":     text[s.Start:s.End],
					})
				}
				return nil
			}}, nil
	})
	r.register("keep_entities_of_type", func(p meteor.Params) (*dataflow.Op, error) {
		t, err := entityType(p)
		if err != nil {
			return nil, err
		}
		return &dataflow.Op{Name: "keep_entities_of_type:" + t.String(), Pkg: dataflow.IE,
			Reads: []string{"entities"}, Writes: []string{"entities"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				ents, _ := rec["entities"].([]EntityAnn)
				out := make([]EntityAnn, 0, len(ents))
				for _, e := range ents {
					if e.Type == t {
						out = append(out, e)
					}
				}
				emit(withField(rec, "entities", out))
				return nil
			}}, nil
	})
	r.register("keep_entities_by_method", func(p meteor.Params) (*dataflow.Op, error) {
		var m Method
		switch paramStr(p, "method", "dict") {
		case "dict":
			m = Dict
		case "ml":
			m = ML
		default:
			return nil, fmt.Errorf("keep_entities_by_method: unknown method %q", paramStr(p, "method", ""))
		}
		return &dataflow.Op{Name: "keep_entities_by_method", Pkg: dataflow.IE,
			Reads: []string{"entities"}, Writes: []string{"entities"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				ents, _ := rec["entities"].([]EntityAnn)
				out := make([]EntityAnn, 0, len(ents))
				for _, e := range ents {
					if e.Method == m {
						out = append(out, e)
					}
				}
				emit(withField(rec, "entities", out))
				return nil
			}}, nil
	})
	r.register("count_negations", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "count_negations", Pkg: dataflow.IE,
			Reads: []string{"anns"}, Writes: []string{"n_negations"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				anns, _ := rec["anns"].([]annot.Annotation)
				n := 0
				for _, a := range anns {
					if a.Kind == annot.KindNegation {
						n++
					}
				}
				emit(withField(rec, "n_negations", n))
				return nil
			}}, nil
	})
	r.register("count_pronouns", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "count_pronouns", Pkg: dataflow.IE,
			Reads: []string{"anns"}, Writes: []string{"n_pronouns"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				anns, _ := rec["anns"].([]annot.Annotation)
				n := 0
				for _, a := range anns {
					if a.Kind == annot.KindPronoun {
						n++
					}
				}
				emit(withField(rec, "n_pronouns", n))
				return nil
			}}, nil
	})
	r.register("entity_density", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "entity_density", Pkg: dataflow.IE,
			Reads: []string{"entities", "sentences"}, Writes: []string{"entities_per_ksent"},
			Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				ents, _ := rec["entities"].([]EntityAnn)
				spans, _ := rec["sentences"].([]nlp.Span)
				d := 0.0
				if len(spans) > 0 {
					d = 1000 * float64(len(ents)) / float64(len(spans))
				}
				emit(withField(rec, "entities_per_ksent", d))
				return nil
			}}, nil
	})
	r.register("annotate_relations", func(p meteor.Params) (*dataflow.Op, error) {
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
		return &dataflow.Op{Name: "annotate_relations", Pkg: dataflow.IE,
			Reads: []string{"text", "sentences", "entities"}, Writes: []string{"relations"},
			Selectivity: 1, Cost: dataflow.Cost{PerKBms: 0.1},
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				text := strField(rec, "text")
				spans, _ := rec["sentences"].([]nlp.Span)
				ents, _ := rec["entities"].([]EntityAnn)
				var ms []relex.Mention
				seen := map[[2]int]bool{}
				for _, e := range ents {
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
				emit(withField(rec, "relations", relex.Extract(text, spans, ms, cfg)))
				return nil
			}}, nil
	})
	r.register("count_relations", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "count_relations", Pkg: dataflow.IE,
			Reads: []string{"relations"}, Writes: []string{"n_relations"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				rels, _ := rec["relations"].([]relex.Relation)
				emit(withField(rec, "n_relations", len(rels)))
				return nil
			}}, nil
	})
	r.register("entity_names", func(p meteor.Params) (*dataflow.Op, error) {
		return &dataflow.Op{Name: "entity_names", Pkg: dataflow.IE,
			Reads: []string{"entities"}, Writes: []string{"names"}, Selectivity: 1,
			Fn: func(rec dataflow.Record, emit dataflow.Emit) error {
				ents, _ := rec["entities"].([]EntityAnn)
				seen := map[string]bool{}
				var names []string
				for _, e := range ents {
					if !seen[e.Surface] {
						seen[e.Surface] = true
						names = append(names, e.Surface)
					}
				}
				sort.Strings(names)
				emit(withField(rec, "names", names))
				return nil
			}}, nil
	})
}

// tokenTexts is the surface forms of one sentence's tokens, the POS
// tagger's input.
func tokenTexts(sent []nlp.TokenSpan) []string {
	words := make([]string, len(sent))
	for j, t := range sent {
		words[j] = t.Text
	}
	return words
}

func filterKind(anns []annot.Annotation, kind annot.Kind) []annot.Annotation {
	var out []annot.Annotation
	for _, a := range anns {
		if a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

// paperScaledStartupMs returns the dictionary-load startup cost
// extrapolated to the paper's dictionary sizes: the gene dictionary
// (700,000 entries) took ~20 minutes to load (§4.2).
func paperScaledStartupMs(t textgen.EntityType) float64 {
	switch t {
	case textgen.Gene:
		return 20 * 60 * 1000
	case textgen.Disease:
		return 2 * 60 * 1000
	case textgen.Drug:
		return 90 * 1000
	}
	return 0
}

// paperScaledMemory extrapolates our measured automaton footprint to the
// paper's dictionary scale (§4.2: 6-20 GB per worker).
func paperScaledMemory(t textgen.EntityType, measured int64) int64 {
	switch t {
	case textgen.Gene:
		return 20 << 30
	case textgen.Disease:
		return 8 << 30
	case textgen.Drug:
		return 6 << 30
	}
	return measured
}
