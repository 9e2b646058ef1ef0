package core

import (
	"fmt"
	"strings"
	"time"

	"webtextie/internal/cluster"
	"webtextie/internal/dataflow"
	"webtextie/internal/eval"
	"webtextie/internal/ling"
	"webtextie/internal/obs"
	"webtextie/internal/relex"
	"webtextie/internal/rng"
	"webtextie/internal/stats"
	"webtextie/internal/textgen"
)

// Fig3 reproduces Fig 3: per-sentence runtimes of POS tagging (a) and of
// dictionary vs ML entity annotation (b) as functions of input length.
// These are real wall-clock measurements of our implementations.
func (e *Experiments) Fig3() string {
	s := e.System()
	gen := s.Set.Generator
	r0 := rng.New(99).Split("fig3")

	// Build sentences of growing length by concatenating generated ones.
	type probe struct {
		words []string
		text  string
	}
	var probes []probe
	var words []string
	var texts []string
	for len(words) < 1200 {
		d := gen.Doc(r0, textgen.Medline, "fig3")
		for _, sent := range d.Sentences {
			for _, tok := range sent.Tokens {
				words = append(words, tok.Text)
			}
		}
		texts = append(texts, d.Text)
		for _, n := range []int{10, 25, 50, 100, 200, 400, 800, 1200} {
			if len(words) >= n && len(probes) < 8 && (len(probes) == 0 || len(probes[len(probes)-1].words) < n) {
				probes = append(probes, probe{
					words: append([]string(nil), words[:n]...),
					text:  strings.Join(words[:n], " "),
				})
			}
		}
	}

	timeIt := func(f func()) time.Duration {
		// Repeat to get measurable times on fast paths.
		const reps = 20
		sp := obs.StartSpan()
		for i := 0; i < reps; i++ {
			f()
		}
		return sp.End() / reps
	}

	var r report
	r.title("Fig 3 — tool runtimes vs input length (wall-clock, this machine)")
	r.section("(a) POS tagging (HMM order 3); paper: linear with fluctuations, crashes on very long sentences")
	r.line("%10s %14s %10s", "tokens", "time/sentence", "status")
	posUnbounded := s.POS
	for _, p := range probes {
		_, err := posUnbounded.Tag(p.words)
		if err != nil {
			r.line("%10d %14s %10s", len(p.words), "-", "CRASH ("+err.Error()[:24]+"...)")
			continue
		}
		d := timeIt(func() { _, _ = posUnbounded.Tag(p.words) })
		r.line("%10d %14s %10s", len(p.words), d, "ok")
	}

	r.section("(b) entity annotation; paper: dict vs ML differ by up to three orders of magnitude")
	r.line("%10s %14s %14s %10s", "chars", "dict (gene)", "ML (gene)", "ratio")
	for _, p := range probes {
		dDict := timeIt(func() { _ = s.DictMatchers[textgen.Gene].Find(p.text) })
		dML := timeIt(func() { _ = s.CRFTaggers[textgen.Gene].Extract(p.text) })
		ratio := float64(dML) / float64(maxDur(dDict, time.Nanosecond))
		r.line("%10d %14s %14s %9.0fx", len(p.text), dDict, dML, ratio)
	}
	st := s.DictMatchers[textgen.Gene].Stats()
	r.line("\ngene dictionary: %d entries -> %d surfaces -> %d automaton nodes, %d KB, built in %s",
		st.Entries, st.Surfaces, st.Nodes, st.Bytes>>10, st.BuildTime)
	r.line("paper-scale extrapolation: 700,000 entries, ~20 min load, 6-20 GB per worker (§4.2)")
	return r.String()
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Fig4 reproduces Fig 4: scale-up of the linguistic and entity flows
// (input grows with DoP) on the simulated paper cluster.
func (e *Experiments) Fig4() string {
	ling, ent, _ := PaperProfiles()
	c := cluster.PaperCluster()
	dops := []int{1, 2, 4, 8, 12, 16, 20, 24, 28}

	lp := c.ScaleUp(ling, 1, dops)
	ep := c.ScaleUp(ent, 1, dops)

	var r report
	r.title("Fig 4 — scale-up (DoP grows with input, 1 GB per DoP; simulated paper cluster)")
	r.line("paper: linguistic flow ≈ ideal scale-up; entity flow sub-linear at large DoP/input")
	r.section("measured (virtual time, seconds)")
	r.line("%8s %10s %14s %14s %12s", "DoP", "input GB", "linguistic", "entity", "ideal(ling)")
	ideal := cluster.IdealScaleUp(lp)
	for i := range dops {
		r.line("%8d %10.0f %14.0f %14.0f %12.0f",
			dops[i], lp[i].InputGB, lp[i].Result.TotalSec, ep[i].Result.TotalSec, ideal)
	}
	lRatio := lp[len(lp)-1].Result.TotalSec / lp[0].Result.TotalSec
	eRatio := ep[len(ep)-1].Result.TotalSec / ep[0].Result.TotalSec
	r.line("\ndegradation 1 -> 28: linguistic %.2fx (≈ ideal), entity %.2fx (sub-linear)", lRatio, eRatio)
	return r.String()
}

// Fig5 reproduces Fig 5: scale-out of both flows over a fixed 20 GB sample.
func (e *Experiments) Fig5() string {
	ling, ent, _ := PaperProfiles()
	c := cluster.PaperCluster()
	dops := []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 56, 84, 140, 156}

	lp := c.ScaleOut(ling, 20, dops)
	ep := c.ScaleOut(ent, 20, dops)

	var r report
	r.title("Fig 5 — scale-out (fixed 20 GB sample; simulated paper cluster)")
	r.line("paper: entity flow infeasible outside DoP 4..28 (runtime/memory), plateau past 16 (startup);")
	r.line("       linguistic flow scales over the whole range, up to 95%% time reduction")
	r.section("measured (virtual time, seconds)")
	r.line("%8s %14s %14s", "DoP", "linguistic", "entity")
	for i := range dops {
		entStr := "infeasible"
		if ep[i].Result.Feasible {
			if dops[i] < 4 {
				entStr = fmt.Sprintf("%.0f (excessive)", ep[i].Result.TotalSec)
			} else {
				entStr = fmt.Sprintf("%.0f", ep[i].Result.TotalSec)
			}
		}
		r.line("%8d %14.0f %14s", dops[i], lp[i].Result.TotalSec, entStr)
	}
	// Key shape numbers.
	byDoP := map[int]cluster.SweepPoint{}
	for _, p := range ep {
		byDoP[p.DoP] = p
	}
	if byDoP[4].Result.Feasible && byDoP[16].Result.Feasible {
		r.line("\nentity 4 -> 16 time reduction: %.0f%% (paper: up to 72%%)",
			100*(1-byDoP[16].Result.TotalSec/byDoP[4].Result.TotalSec))
	}
	lFirst, lLast := lp[0].Result.TotalSec, lp[len(lp)-1].Result.TotalSec
	r.line("linguistic 1 -> 156 time reduction: %.0f%% (paper: up to 95%%)", 100*(1-lLast/lFirst))
	r.line("entity max feasible DoP: %d (memory-capped; paper: 28)", cluster.PaperCluster().FeasibleDoP(ent))
	return r.String()
}

// WarStory reproduces the §4.2 "processing the entire crawl" feasibility
// analysis: the consolidated flow cannot run on the cluster; the split
// flows can; gene NER needs the 1 TB RAM server; chunking relieves the
// network.
func (e *Experiments) WarStory() string {
	ling, ent, cons := PaperProfiles()
	c := cluster.PaperCluster()

	var r report
	r.title("§4.2 — processing the entire crawl: a war story (simulated)")
	r.section("1. consolidated 38-operator flow (60 GB/worker)")
	res := c.Simulate(cons, 1000, 28)
	r.line("feasible: %v — %s", res.Feasible, res.Reason)
	if cons.LibraryConflict {
		r.line("additionally: OpenNLP 1.4 vs 1.5 class-loader conflict forces the disease tagger into a separate run")
	}

	r.section("2. split flows on the 28-node cluster")
	for _, fp := range []cluster.FlowProfile{ling, ent} {
		res := c.Simulate(fp, 1000, c.FeasibleDoP(fp))
		r.line("%-12s feasible at DoP %3d: %6.0f s total (compute %5.0f, startup %5.0f, network %5.0f)%s",
			fp.Name, c.FeasibleDoP(fp), res.TotalSec, res.ComputeSec, res.StartupSec, res.NetworkSec,
			boundNote(res))
	}

	r.section("3. gene NER on the 1 TB RAM server (paper: 40 threads)")
	big := cluster.Config{Nodes: 1, CoresPerNode: 40, RAMPerNodeGB: 1024, NetworkGbps: 10, ReplicationFactor: 1}
	geneFlow := cluster.FlowProfile{Name: "gene-ner", PerKBms: 0.9,
		StartupMs: 20 * 60 * 1000, MemPerWorkerGB: 20, OutputFactor: 0.2, Skew: 0.08}
	res = big.Simulate(geneFlow, 373, 40)
	r.line("gene NER on 373 GB relevant corpus: feasible=%v, %.0f s at DoP 40 (%d workers/node)",
		res.Feasible, res.TotalSec, res.WorkersPerNode)

	r.section("4. memory-aware flow splitting (what the scheduler should have done)")
	// Per-class memory footprints of the heavy IE operators.
	classMem := []float64{20, 8, 6, 0.25, 0.5} // gene, disease, drug dicts; POS; misc
	groups, err := cluster.SplitFlow(classMem, c.RAMPerNodeGB)
	if err != nil {
		r.line("split failed: %v", err)
	} else {
		names := []string{"gene-dict", "disease-dict", "drug-dict", "pos", "misc"}
		r.line("first-fit-decreasing split into %d runs on %.0f GB nodes (paper split by hand):", len(groups), c.RAMPerNodeGB)
		for gi, g := range groups {
			row := ""
			for _, idx := range g {
				row += names[idx] + " "
			}
			r.line("  run %d: %s", gi+1, row)
		}
	}

	r.section("5. intermediate data and the 1 Gb network")
	heavy := ling
	heavy.OutputFactor = 1.6 // 1.6 TB derived from 1 TB raw (§4.2)
	full := c.Simulate(heavy, 1000, 168)
	chunk := c.Simulate(heavy, 50, 168)
	r.line("full 1 TB pass: network-bound=%v (network %4.0f s vs compute %4.0f s) — the timeout regime",
		full.NetworkBound, full.NetworkSec, full.ComputeSec)
	r.line("50 GB chunks (paper's workaround): per-chunk network %4.0f s — failure isolation per chunk",
		chunk.NetworkSec)
	return r.String()
}

func boundNote(res cluster.Result) string {
	if res.NetworkBound {
		return "  [network-bound]"
	}
	return ""
}

// Fig6 reproduces Fig 6: document length, sentence length, and negation
// distributions per corpus, with Mann-Whitney-Wilcoxon significance.
func (e *Experiments) Fig6() string {
	var r report
	r.title("Fig 6 — linguistic properties per corpus")

	lengths := map[textgen.CorpusKind][]float64{}
	sentLens := map[textgen.CorpusKind][]float64{}
	negs := map[textgen.CorpusKind][]float64{}
	for _, a := range e.corpusOrder() {
		for _, l := range a.Ling {
			lengths[a.Kind] = append(lengths[a.Kind], float64(l.Chars))
			if l.Sentences > 0 {
				sentLens[a.Kind] = append(sentLens[a.Kind], l.MeanSentenceLen)
				negs[a.Kind] = append(negs[a.Kind], l.NegPerSentence())
			}
		}
	}

	r.section("(a) document length (net text, chars)")
	r.line("paper ordering: PMC > Relevant > Irrelevant > Medline; Relevant has the largest variance")
	r.line("%-12s %8s %10s %10s %10s %10s", "corpus", "n", "mean", "median", "std", "max")
	for _, kind := range textgen.CorpusKinds {
		s := stats.Summarize(lengths[kind])
		r.line("%-12s %8d %10.0f %10.0f %10.0f %10.0f", kind, s.N, s.Mean, s.Median, s.Std, s.Max)
	}

	r.section("(b) mean sentence length (chars)")
	r.line("%-12s %10s %10s", "corpus", "mean", "median")
	for _, kind := range textgen.CorpusKinds {
		s := stats.Summarize(sentLens[kind])
		r.line("%-12s %10.1f %10.1f", kind, s.Mean, s.Median)
	}

	r.section("(c) negation per sentence")
	r.line("paper ordering: PMC ≈ Irrelevant > Relevant > Medline")
	r.line("%-12s %10s", "corpus", "mean")
	for _, kind := range textgen.CorpusKinds {
		s := stats.Summarize(negs[kind])
		r.line("%-12s %10.4f", kind, s.Mean)
	}

	r.section("Mann-Whitney-Wilcoxon P-values (document length; paper: all pairwise P < 0.01)")
	kinds := textgen.CorpusKinds
	for i := 0; i < len(kinds); i++ {
		for j := i + 1; j < len(kinds); j++ {
			_, p := stats.MannWhitney(lengths[kinds[i]], lengths[kinds[j]])
			r.line("%-12s vs %-12s P = %.2g", kinds[i], kinds[j], p)
		}
	}
	return r.String()
}

// Pronouns reproduces the §4.3.1 pronoun and parenthesis incidences.
func (e *Experiments) Pronouns() string {
	var r report
	r.title("§4.3.1 — pronoun and parenthesis incidence per 1000 sentences")
	r.line("paper: demonstrative/relative/object pronouns lower in web corpora than PMC;")
	r.line("       parentheses highest in PMC, then Relevant, Medline; lowest in Irrelevant")
	r.section("measured")
	header := fmt.Sprintf("%-12s", "corpus")
	for _, c := range ling.PronounClassNames {
		header += fmt.Sprintf(" %13s", c)
	}
	header += fmt.Sprintf(" %13s", "parens")
	r.line("%s", header)
	for _, a := range e.corpusOrder() {
		var sents float64
		var prons [6]float64
		var parens float64
		for _, l := range a.Ling {
			sents += float64(l.Sentences)
			for i, n := range l.Pronouns {
				prons[i] += float64(n)
			}
			parens += float64(l.Parens)
		}
		if sents == 0 {
			continue
		}
		row := fmt.Sprintf("%-12s", a.Kind)
		for _, n := range prons {
			row += fmt.Sprintf(" %13.1f", 1000*n/sents)
		}
		row += fmt.Sprintf(" %13.1f", 1000*parens/sents)
		r.line("%s", row)
	}
	return r.String()
}

// Table4 reproduces Table 4: distinct entity names by corpus and method.
func (e *Experiments) Table4() string {
	paper := map[textgen.CorpusKind]map[Method]map[textgen.EntityType]int{
		textgen.Relevant: {
			Dict: {textgen.Disease: 26344, textgen.Drug: 17974, textgen.Gene: 73435},
			ML:   {textgen.Disease: 629384, textgen.Drug: 28660, textgen.Gene: 5506579},
		},
		textgen.Irrelevant: {
			Dict: {textgen.Disease: 5318, textgen.Drug: 8456, textgen.Gene: 22131},
			ML:   {textgen.Disease: 119638, textgen.Drug: 15875, textgen.Gene: 991010},
		},
		textgen.Medline: {
			Dict: {textgen.Disease: 11194, textgen.Drug: 12164, textgen.Gene: 29928},
			ML:   {textgen.Disease: 343184, textgen.Drug: 20282, textgen.Gene: 4715194},
		},
		textgen.PMC: {
			Dict: {textgen.Disease: 12291, textgen.Drug: 15013, textgen.Gene: 92319},
			ML:   {textgen.Disease: 277211, textgen.Drug: 25462, textgen.Gene: 1858709},
		},
	}

	var r report
	r.title("Table 4 — number of distinct entity names by corpus and method")
	r.line("%-12s %-6s | %9s %9s %9s | %9s %9s %9s", "corpus", "method",
		"paper dis", "paper drug", "paper gene", "ours dis", "ours drug", "ours gene")
	for _, a := range e.corpusOrder() {
		for _, m := range Methods {
			geneCount := len(a.DistinctNames[m][textgen.Gene])
			if m == ML {
				geneCount = len(a.RawMLGeneNames) // Table 4 reports pre-TLA-filter counts
			}
			r.line("%-12s %-6s | %9d %9d %9d | %9d %9d %9d",
				a.Kind, m,
				paper[a.Kind][m][textgen.Disease], paper[a.Kind][m][textgen.Drug], paper[a.Kind][m][textgen.Gene],
				len(a.DistinctNames[m][textgen.Disease]),
				len(a.DistinctNames[m][textgen.Drug]),
				geneCount)
		}
	}
	rel := e.Analysis().ByKind[textgen.Relevant]
	r.line("\nshape checks: ML > Dict for every corpus/class; Relevant >> Irrelevant;")
	r.line("gene ML explosion on web text: %d raw ML gene names -> %d after TLA filtering (paper: 5.5M -> 2.3M)",
		len(rel.RawMLGeneNames), len(rel.DistinctNames[ML][textgen.Gene]))
	return r.String()
}

// Fig7 reproduces Fig 7: entity-mention incidence per corpus, as the §4.3.2
// per-1000-sentence averages.
func (e *Experiments) Fig7() string {
	paperAvg := map[textgen.EntityType]map[textgen.CorpusKind]float64{
		textgen.Disease: {textgen.Relevant: 128.49, textgen.Irrelevant: 4.57, textgen.Medline: 204.92, textgen.PMC: 117.51},
		textgen.Drug:    {textgen.Relevant: 97.83, textgen.Irrelevant: 6.85, textgen.Medline: 293.95, textgen.PMC: 275.95},
		textgen.Gene:    {textgen.Relevant: 128.23, textgen.Irrelevant: 4.39, textgen.Medline: 415.58, textgen.PMC: 74.12},
	}

	var r report
	r.title("Fig 7 — entity annotations per 1000 sentences (dictionary-based)")
	r.line("%-10s %-12s %12s %12s", "class", "corpus", "paper avg", "ours")
	for _, et := range textgen.EntityTypes {
		for _, a := range e.corpusOrder() {
			r.line("%-10s %-12s %12.2f %12.2f", et, a.Kind,
				paperAvg[et][a.Kind], a.MentionsPer1000Sentences(Dict, et))
		}
	}
	r.line("\n(ML-based incidences follow the same orderings; the gene ML counts on web")
	r.line("text are dominated by TLA false positives before filtering, §4.3.2)")
	return r.String()
}

// Fig8 reproduces Fig 8: the overlap of distinct dictionary-extracted
// entity names across the four corpora.
func (e *Experiments) Fig8() string {
	var r report
	r.title("Fig 8 — annotation overlap of distinct entity names (dictionary-based)")
	r.line("paper: Rel∩Irr ≈ 15%% (disease) / 30%% (drug) / 17%% (gene) of relevant names;")
	r.line("       overlap with Medline/PMC considerably larger (6-60%%)")
	as := e.Analysis()
	for _, et := range textgen.EntityTypes {
		rel, irr, med, pmc := as.DistinctNameSets(Dict, et)
		o := eval.ComputeOverlap(rel, irr, med, pmc)
		r.section(fmt.Sprintf("(%s) %d distinct names total", et, o.Total))
		r.line("%s", o.FormatVenn())
		r.line("pairwise shares of relevant names also found in ...")
		r.line("  irrelevant: %5.1f%%   medline: %5.1f%%   pmc: %5.1f%%",
			100*eval.PairOverlapShare(rel, irr),
			100*eval.PairOverlapShare(rel, med),
			100*eval.PairOverlapShare(rel, pmc))
	}
	return r.String()
}

// RelationsReport is an EXTENSION beyond the paper's evaluation: it runs
// the relation-extraction flow over the relevant-web and Medline corpora
// and compares the extracted relation inventories — the paper's stated
// next step ("Studying these sets in more detail will be the next step in
// our research", §4.3.2).
func (e *Experiments) RelationsReport() string {
	s := e.System()
	reg := e.Reg()
	plan := reg.RelationFlow()

	extract := func(kind textgen.CorpusKind) (rels int, kinds map[string]int, pairs map[string]bool, negated int) {
		kinds = map[string]int{}
		pairs = map[string]bool{}
		c := s.Set.Corpus(kind)
		recs := make([]dataflow.Record, len(c.Docs))
		for i, d := range c.Docs {
			recs[i] = dataflow.Record{"id": d.ID, "text": d.Text}
		}
		results, _, err := dataflow.Execute(plan, recs, dataflow.ExecConfig{DoP: 4})
		if err != nil {
			panic(err)
		}
		for _, sink := range plan.Sinks() {
			for _, rec := range results[sink.ID()] {
				rs, _ := rec["relations"].([]relex.Relation)
				for _, rel := range rs {
					rels++
					kinds[rel.Kind]++
					pairs[rel.PairKey()] = true
					if rel.Negated {
						negated++
					}
				}
			}
		}
		return
	}

	var r report
	r.title("EXTENSION — relation extraction over the corpora (beyond the paper)")
	r.line("%-12s %10s %10s %10s", "corpus", "relations", "distinct", "negated")
	webRels, webKinds, webPairs, webNeg := extract(textgen.Relevant)
	medRels, medKinds, medPairs, medNeg := extract(textgen.Medline)
	r.line("%-12s %10d %10d %10d", "Relevant", webRels, len(webPairs), webNeg)
	r.line("%-12s %10d %10d %10d", "Medline", medRels, len(medPairs), medNeg)

	r.section("relation kinds (Relevant / Medline)")
	for _, k := range sortedKeys(webKinds) {
		r.line("%-14s %6d / %d", k, webKinds[k], medKinds[k])
	}
	// Web-only relation pairs: candidate knowledge absent from the
	// literature, now at the relation level rather than the name level.
	webOnly := 0
	for p := range webPairs {
		if !medPairs[p] {
			webOnly++
		}
	}
	r.line("\nrelation pairs found on the relevant web but not in Medline: %d of %d (%.1f%%)",
		webOnly, len(webPairs), 100*float64(webOnly)/float64(max(1, len(webPairs))))
	return r.String()
}

// JSDReport reproduces the §4.3.2 Jensen-Shannon divergences between
// entity-name distributions.
func (e *Experiments) JSDReport() string {
	var r report
	r.title("§4.3.2 — Jensen-Shannon divergence between entity-name distributions")
	r.line("paper ranges: JSD(rel,irrel) 0.45-0.65 > JSD(rel,medl) 0.29-0.36, JSD(rel,pmc) 0.17-0.34;")
	r.line("              JSD(irrel,medl) 0.45-0.69, JSD(irrel,pmc) 0.39-0.66")
	as := e.Analysis()
	pairs := []struct {
		a, b textgen.CorpusKind
	}{
		{textgen.Relevant, textgen.Irrelevant},
		{textgen.Relevant, textgen.Medline},
		{textgen.Relevant, textgen.PMC},
		{textgen.Irrelevant, textgen.Medline},
		{textgen.Irrelevant, textgen.PMC},
		{textgen.Medline, textgen.PMC},
	}
	r.section("measured (dictionary-based)")
	r.line("%-26s %10s %10s %10s", "pair", "disease", "drug", "gene")
	for _, p := range pairs {
		row := fmt.Sprintf("%-26s", p.a.String()+" vs "+p.b.String())
		for _, et := range textgen.EntityTypes {
			da := as.ByKind[p.a].Distribution(Dict, et)
			db := as.ByKind[p.b].Distribution(Dict, et)
			row += fmt.Sprintf(" %10.4f", stats.JSD(da, db))
		}
		r.line("%s", row)
	}
	return r.String()
}
