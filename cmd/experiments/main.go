// Command experiments regenerates every table and figure of the paper's
// evaluation section (§4), printing paper-reported values next to this
// build's measurements.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-scale N] [-metrics]
//	            [-trace] [-trace-out FILE]
//	            [-log] [-log-out FILE] [-doctor] [-debug-addr HOST:PORT]
//	            [-series] [-series-out FILE]
//	            [-prof] [-prof-out FILE]
//	            [experiment ...]
//
// The observability flags are the ones crawl and analyze take: -prof
// attaches the wall-clock stage profiler to every dataflow execution the
// experiments run and prints the 10 most expensive operators at exit;
// the -series flags are accepted for parity and stay empty (an execution
// has no sample clock); -doctor attaches every pillar. -debug-addr serves
// /metrics, /traces, /logs, /timeseries, /profile and /doctor — the same
// bytes as the -metrics block, the export files and the -doctor report —
// plus /progress and /debug/pprof live while the experiments run.
//
// Experiments: table1 seeds crawl classifier boilerplate table2 table3
// fig3 fig4 fig5 warstory fig6 pronouns table4 fig7 fig8 jsd all
// (default: all).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"webtextie"
	"webtextie/internal/obs"
	"webtextie/internal/obs/cliobs"
)

func main() {
	quick := flag.Bool("quick", false, "use the reduced quick configuration")
	seed := flag.Uint64("seed", 0, "override the generation seed (0 = default)")
	scale := flag.Int("scale", 0, "override the corpus scale factor (0 = default)")
	metrics := flag.Bool("metrics", false, "dump the obs metric registry at exit")
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()

	cfg := webtextie.DefaultConfig()
	if *quick {
		cfg = webtextie.QuickConfig()
	}
	if *seed != 0 {
		cfg.Corpora.Seed = *seed
	}
	if *scale != 0 {
		cfg.Corpora.ScaleFactor = *scale
	}

	obsSetup := obsFlags.Setup(cfg.Corpora.Seed)
	cfg.Exec = obsSetup.Set
	var current atomic.Value
	current.Store("starting")
	addr, err := obsSetup.Serve(func() any {
		return map[string]any{"experiment": current.Load()}
	})
	if err != nil {
		log.Fatal(err)
	}
	if addr != "" {
		fmt.Printf("debug server listening on http://%s/\n", addr)
	}

	exp := webtextie.NewExperiments(cfg)
	runners := map[string]func() string{
		"table1":      exp.Table1,
		"seeds":       exp.SeedsExperiment,
		"crawl":       exp.CrawlStats,
		"classifier":  exp.ClassifierQuality,
		"boilerplate": exp.BoilerplateQuality,
		"table2":      exp.Table2,
		"table3":      exp.Table3,
		"fig3":        exp.Fig3,
		"fig4":        exp.Fig4,
		"fig5":        exp.Fig5,
		"warstory":    exp.WarStory,
		"fig6":        exp.Fig6,
		"pronouns":    exp.Pronouns,
		"table4":      exp.Table4,
		"fig7":        exp.Fig7,
		"fig8":        exp.Fig8,
		"jsd":         exp.JSDReport,
		"relations":   exp.RelationsReport,
		"extensions":  exp.ExtensionsReport,
		"resilience":  exp.ResilienceReport,
	}
	order := []string{
		"table1", "seeds", "crawl", "classifier", "boilerplate", "table2",
		"table3", "fig3", "fig4", "fig5", "warstory", "fig6", "pronouns",
		"table4", "fig7", "fig8", "jsd", "relations", "extensions",
		"resilience",
	}

	wanted := flag.Args()
	if len(wanted) == 0 || (len(wanted) == 1 && wanted[0] == "all") {
		wanted = order
	}
	for _, name := range wanted {
		run, ok := runners[name]
		if !ok {
			var known []string
			for k := range runners {
				known = append(known, k)
			}
			sort.Strings(known)
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %v\n", name, known)
			os.Exit(2)
		}
		current.Store(name)
		sp := obs.StartSpan()
		fmt.Println(run())
		fmt.Printf("[%s completed in %s]\n\n", name, sp.End().Round(time.Millisecond))
	}
	current.Store("done")

	summary, err := obsSetup.Finish(obsSetup.Snapshot(), nil)
	if summary != "" {
		fmt.Print(summary)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *metrics {
		fmt.Println("metric registry (obs)")
		fmt.Print(obs.Default().Snapshot().Text())
	}
}
