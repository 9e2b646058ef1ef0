package main

import (
	"errors"
	"fmt"
	"strings"

	"webtextie/internal/boiler"
	"webtextie/internal/classify"
	"webtextie/internal/core"
	"webtextie/internal/crawler"
	"webtextie/internal/dataflow"
	"webtextie/internal/htmlkit"
	"webtextie/internal/langid"
	"webtextie/internal/ling"
	"webtextie/internal/mimetype"
	"webtextie/internal/nlp"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// The replays call the same public functions the crawler and the operators
// call, in the same order and as often, with a probe around each call.
// Nothing inside the program is traced: what the replays cannot see — the
// crawl loop, crawldb, record cloning, channels — shows up as the share of
// the untraced wall they leave unaccounted.

// netText is boiler.Classifier.Extract rebuilt from the public functions
// it is made of, so its three htmlkit stages get spans of their own.
func netText(c *boiler.Classifier, html string, item int, p probe) string {
	p.begin(kBoiler, item)
	p.begin(kTokenizeHTML, item)
	tokens := htmlkit.Tokenize(html)
	p.end(len(html))
	p.begin(kRepair, item)
	tokens, _ = htmlkit.Repair(tokens)
	p.end(len(html))
	p.begin(kBlocks, item)
	blocks := htmlkit.ExtractBlocks(tokens)
	p.end(len(html))
	var parts []string
	for _, l := range c.Classify(blocks) {
		if l.Content {
			parts = append(parts, l.Block.Text)
		}
	}
	text := strings.Join(parts, "\n")
	p.end(len(html))
	return text
}

// verdicts counts what became of the replayed pages, field for field what
// crawler.Stats counts, so a replay can be checked against the crawl.
type verdicts struct {
	mime, length, lang, relevant, irrelevant int
}

func verdictsOf(s crawler.Stats) verdicts {
	return verdicts{s.FilteredMIME, s.FilteredLength, s.FilteredLang, s.Relevant, s.Irrelevant}
}

// crawlReplay runs crawler.fetchOne's kernel calls over a URL list.
type crawlReplay struct {
	web  *synthweb.Web
	clf  *classify.NaiveBayes
	cfg  crawler.Config
	lang *langid.Identifier
	boil *boiler.Classifier
}

func newCrawlReplay(web *synthweb.Web, clf *classify.NaiveBayes) *crawlReplay {
	return &crawlReplay{web: web, clf: clf, cfg: crawler.DefaultConfig(),
		lang: langid.New(), boil: boiler.Default()}
}

func (r *crawlReplay) run(urls []string, p probe) (verdicts, error) {
	var v verdicts
	for i, u := range urls {
		p.begin(kFetch, i)
		page, err := r.web.Fetch(u)
		if err != nil {
			return v, fmt.Errorf("replay fetch %s: %w", u, err)
		}
		p.end(len(page.Body))
		p.begin(kMime, i)
		textual := mimetype.Detect(u, page.Body).IsTextual()
		p.end(len(page.Body))
		if !textual {
			v.mime++
			continue
		}
		text := netText(r.boil, string(page.Body), i, p)
		if len(text) > r.cfg.MaxNetTextLen {
			v.length++
			continue
		}
		p.begin(kLangid, i)
		english := r.lang.IsEnglish(text)
		p.end(len(text))
		if !english {
			v.lang++
			continue
		}
		if len(text) < r.cfg.MinNetTextLen {
			v.length++
			continue
		}
		p.begin(kClassify, i)
		prob := r.clf.ProbRelevant(text)
		p.end(len(text))
		if prob >= r.clf.Threshold {
			v.relevant++
		} else {
			v.irrelevant++
		}
	}
	return v, nil
}

// keep takes a value from every replayed call, so none can be optimised
// away as unused.
var keep int

// visit is one record arriving at one operator, as the bare composition
// saw it.
type visit struct {
	node *dataflow.Node
	rec  dataflow.Record
}

// runBare composes the plan's own UDFs on one goroutine with plain
// function calls where dataflow.Execute has channels, worker groups,
// spans, histograms and gauges: the denominator of dataflow.framework_tax.
// It clones at fan-out as Execute does. Under the executor's default
// policy a failing record is dropped and counted, and so it is here.
func runBare(plan *dataflow.Plan, input []dataflow.Record, onVisit func(visit)) (sink []dataflow.Record, hops, failures int64, err error) {
	if err := plan.Validate(); err != nil {
		return nil, 0, 0, err
	}
	readers := map[*dataflow.Node][]*dataflow.Node{}
	var sources []*dataflow.Node
	for _, n := range plan.Nodes() {
		if n.Op.Init != nil {
			if err := n.Op.Init(); err != nil {
				return nil, 0, 0, fmt.Errorf("init %s: %w", n.Op.Name, err)
			}
		}
		if len(n.Inputs) == 0 {
			sources = append(sources, n)
		}
		for _, in := range n.Inputs {
			readers[in] = append(readers[in], n)
		}
	}
	var push func(n *dataflow.Node, rec dataflow.Record)
	push = func(n *dataflow.Node, rec dataflow.Record) {
		hops++
		if onVisit != nil {
			onVisit(visit{n, rec})
		}
		outs := readers[n]
		err := n.Op.Fn(rec, func(out dataflow.Record) {
			if len(outs) == 0 {
				sink = append(sink, out)
				return
			}
			for i, r := range outs {
				o := out
				if i != len(outs)-1 {
					o = out.Clone()
				}
				push(r, o)
			}
		})
		if err != nil && !errors.Is(err, dataflow.ErrStopFlow) {
			failures++
		}
	}
	for _, rec := range input {
		for _, s := range sources {
			push(s, rec)
		}
	}
	return sink, hops, failures, nil
}

// flowReplay runs, for each visit, the kernel calls the visited operator
// makes (internal/core/ops.go). Driving it from the bare composition's own
// visits means every filter has already decided which records reach which
// operator, so no operator logic is copied here beyond the calls.
type flowReplay struct {
	sys    *core.System
	lang   *langid.Identifier
	boil   *boiler.Classifier
	itemOf map[string]int
}

func newFlowReplay(sys *core.System, docs []dataflow.Record) *flowReplay {
	f := &flowReplay{sys: sys, lang: langid.New(), boil: boiler.Default(), itemOf: map[string]int{}}
	for i, d := range docs {
		f.itemOf[d["id"].(string)] = i
	}
	return f
}

var entityTypes = map[string]textgen.EntityType{
	"gene": textgen.Gene, "drug": textgen.Drug, "disease": textgen.Disease,
}

func (f *flowReplay) run(visits []visit, p probe) {
	for _, v := range visits {
		f.replay(v, p)
	}
}

func (f *flowReplay) replay(v visit, p probe) {
	rec := v.rec
	id, _ := rec["id"].(string)
	item := f.itemOf[id]
	text, _ := rec["text"].(string)
	html, _ := rec["html"].(string)
	spans, _ := rec["sentences"].([]nlp.Span)

	name, param, _ := strings.Cut(v.node.Op.Name, ":")
	switch name {
	case "mime_filter":
		body := []byte(html)
		p.begin(kMime, item)
		keep += len(mimetype.Detect(id, body))
		p.end(len(html))
	case "parse_html", "extract_links", "extract_title":
		p.begin(kTokenizeHTML, item)
		keep += len(htmlkit.Tokenize(html))
		p.end(len(html))
	case "repair_markup":
		toks, _ := rec["html_tokens"].([]htmlkit.Token)
		p.begin(kRepair, item)
		repaired, _ := htmlkit.Repair(toks)
		keep += len(repaired)
		p.end(len(html))
	case "boilerplate_detect":
		keep += len(netText(f.boil, html, item, p))
	case "language_filter":
		p.begin(kLangid, item)
		l, _ := f.lang.Identify(text)
		keep += len(l)
		p.end(len(text))
	case "annotate_sentences":
		f.split(text, item, p)
	case "filter_degenerate_sentences":
		// The operator re-splits only when it cut a sentence over the
		// max_chars the flows set (internal/core/flows.go).
		const max = 600
		var parts []string
		for _, s := range spans {
			if s.Len() <= max {
				parts = append(parts, text[s.Start:s.End])
			}
		}
		if len(parts) != len(spans) {
			f.split(strings.Join(parts, " "), item, p)
		}
	case "annotate_tokens":
		for _, s := range spans {
			p.begin(kTokenize, item)
			keep += len(nlp.Tokenize(text[s.Start:s.End], s.Start))
			p.end(s.Len())
		}
	case "annotate_negation", "annotate_pronouns", "annotate_parens":
		f.analyze(id, text, spans, item, p)
	case "ling_stats":
		// ling.Measure is SplitSentences, Analyze and a count.
		f.analyze(id, text, f.split(text, item, p), item, p)
	case "pos_tag":
		toks, _ := rec["tokens"].([][]nlp.TokenSpan)
		for _, sent := range toks {
			words := make([]string, len(sent))
			n := 0
			for j, t := range sent {
				words[j] = t.Text
				n += len(t.Text)
			}
			p.begin(kPOS, item)
			// A too-long sentence fails as in Fig 3a; the operator skips it too.
			tags, _ := f.sys.POS.Tag(words)
			keep += len(tags)
			p.end(n)
		}
	case "annotate_entities_dict":
		p.begin(kDict, item)
		keep += len(f.sys.DictMatchers[entityTypes[param]].Find(text))
		p.end(len(text))
	case "annotate_entities_ml":
		p.begin(kCRF, item)
		keep += len(f.sys.CRFTaggers[entityTypes[param]].Extract(text))
		p.end(len(text))
	}
}

func (f *flowReplay) split(text string, item int, p probe) []nlp.Span {
	p.begin(kSplit, item)
	s := nlp.SplitSentences(text)
	p.end(len(text))
	return s
}

func (f *flowReplay) analyze(id, text string, spans []nlp.Span, item int, p probe) {
	p.begin(kLing, item)
	keep += len(ling.Analyze(id, text, spans))
	p.end(len(text))
}
