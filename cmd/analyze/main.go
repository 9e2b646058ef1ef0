// Command analyze runs the consolidated IE data flow (§3.2, Fig 2) over
// one of the four corpora and prints the extraction summary.
//
// Usage:
//
//	analyze [-corpus relevant|irrelevant|medline|pmc] [-dop N] [-quick] [-metrics]
//	        [-error-policy quarantine|failfast] [-op-retries N]
//	        [-trace] [-trace-out FILE]
//	        [-log] [-log-out FILE] [-doctor] [-debug-addr HOST:PORT]
//	        [-series] [-series-out FILE]
//	        [-prof] [-prof-out FILE]
//
// -trace attaches the per-record lineage recorder to the executor (every
// quarantined record pins its full operator lineage); -log attaches the
// deterministic structured event log. -prof attaches the wall-clock stage
// profiler — calls and wall ms per operator — and prints the 10 most
// expensive operators at exit (-prof-out writes the profile as JSON).
// The -series flags are accepted for parity with crawl; an execution has
// no sample clock, so their exports stay empty. -doctor attaches every
// pillar and prints the cross-pillar diagnosis at exit. -debug-addr
// serves /metrics, /traces, /logs, /timeseries, /profile and /doctor —
// the same bytes as the -metrics block, the export files and the -doctor
// report — plus /progress and /debug/pprof live while the analysis runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"sync/atomic"

	"webtextie"
	"webtextie/internal/obs"
	"webtextie/internal/obs/cliobs"
	"webtextie/internal/textgen"
)

func main() {
	corpusName := flag.String("corpus", "medline", "corpus to analyze")
	dop := flag.Int("dop", 4, "degree of parallelism: executor workers, each carrying records through the whole flow")
	quick := flag.Bool("quick", true, "use the reduced quick configuration")
	out := flag.String("out", "", "directory for the exported fact database (JSONL chunks); empty = no export")
	metrics := flag.Bool("metrics", false, "dump the obs metric registry at exit")
	policy := flag.String("error-policy", "quarantine",
		"executor response to operator failures: quarantine (count, dead-letter, continue) or failfast (abort the run)")
	opRetries := flag.Int("op-retries", 0, "per-record operator retry budget before a failure is terminal")
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()

	var kind webtextie.CorpusKind
	switch strings.ToLower(*corpusName) {
	case "relevant":
		kind = webtextie.Relevant
	case "irrelevant":
		kind = webtextie.Irrelevant
	case "medline":
		kind = webtextie.Medline
	case "pmc":
		kind = webtextie.PMC
	default:
		log.Fatalf("unknown corpus %q", *corpusName)
	}

	cfg := webtextie.DefaultConfig()
	if *quick {
		cfg = webtextie.QuickConfig()
	}
	switch strings.ToLower(*policy) {
	case "quarantine", "":
		cfg.ExecPolicy = webtextie.Quarantine
	case "failfast":
		cfg.ExecPolicy = webtextie.FailFast
	default:
		log.Fatalf("unknown -error-policy %q (want quarantine or failfast)", *policy)
	}
	cfg.ExecOpRetries = *opRetries

	obsSetup := obsFlags.Setup(cfg.Corpora.Seed)
	cfg.Exec = obsSetup.Set
	var phase atomic.Value
	phase.Store("building system")
	addr, err := obsSetup.Serve(func() any {
		return map[string]any{"phase": phase.Load(), "corpus": *corpusName, "dop": *dop}
	})
	if err != nil {
		log.Fatal(err)
	}
	if addr != "" {
		fmt.Printf("debug server listening on http://%s/\n", addr)
	}

	fmt.Println("building system (corpora, crawl, tagger training)...")
	sys := webtextie.New(cfg)
	reg := sys.Registry()

	c := sys.Set.Corpus(kind)
	phase.Store("analyzing " + kind.String())
	fmt.Printf("analyzing %s: %d documents, %d raw bytes, DoP %d\n",
		kind, c.NumDocs(), c.RawBytes(), *dop)

	var a *webtextie.CorpusAnalysis
	if *out != "" {
		var facts int64
		a, facts, err = sys.ExportFacts(reg, c, *dop, *out, 32<<20)
		if err == nil {
			fmt.Printf("exported %d facts to %s\n", facts, *out)
		}
	} else {
		a, err = sys.AnalyzeCorpus(reg, c, *dop)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsentences: %d   POS crashes skipped: %d   flow errors: %d   retries: %d   quarantined: %d\n",
		a.Sentences, a.PosFailed, a.FlowErrors, a.FlowRetries, a.FlowQuarantined)
	fmt.Printf("%-10s %-8s %14s %16s %18s\n", "class", "method", "mentions", "distinct names", "per 1000 sentences")
	for _, et := range []webtextie.EntityType{textgen.Disease, textgen.Drug, textgen.Gene} {
		for _, m := range []webtextie.Method{webtextie.Dict, webtextie.ML} {
			fmt.Printf("%-10s %-8s %14d %16d %18.2f\n",
				et, m, a.TotalMentions[m][et], len(a.DistinctNames[m][et]),
				a.MentionsPer1000Sentences(m, et))
		}
	}
	fmt.Printf("\nTLA-filtered ML gene mentions: %d (raw distinct ML gene names: %d)\n",
		a.TLARemoved, len(a.RawMLGeneNames))
	phase.Store("done")

	summary, err := obsSetup.Finish(obsSetup.Snapshot(), nil)
	if summary != "" {
		fmt.Println()
		fmt.Print(summary)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *metrics {
		fmt.Println("\nmetric registry (obs)")
		fmt.Print(obs.Default().Snapshot().Text())
	}
}
