// Command meteor parses, optimizes, and executes a Meteor script (§3.1)
// against documents drawn from the synthetic corpora. With no -script
// argument it runs the paper's consolidated Fig 2 flow over freshly
// fetched raw web pages.
//
// Usage:
//
//	meteor [-script file.mtr] [-docs N] [-dop N] [-noopt] [-plan]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"webtextie"
	"webtextie/internal/dataflow"
	"webtextie/internal/meteor"
	"webtextie/internal/synthweb"
)

func main() {
	scriptPath := flag.String("script", "", "Meteor script file ('' = the built-in 30-node variant of the consolidated flow)")
	docs := flag.Int("docs", 50, "number of raw web pages to feed")
	dop := flag.Int("dop", 4, "degree of parallelism: executor workers, each carrying records through the whole plan")
	noopt := flag.Bool("noopt", false, "disable the logical optimizer")
	showPlan := flag.Bool("plan", false, "print the compiled plan and exit")
	flag.Parse()

	src := webtextie.ConsolidatedMeteorScript
	if *scriptPath != "" {
		b, err := os.ReadFile(*scriptPath)
		if err != nil {
			log.Fatal(err)
		}
		src = string(b)
	}

	fmt.Println("building system...")
	sys := webtextie.New(webtextie.QuickConfig())
	reg := sys.Registry()

	script, err := meteor.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	compiled, err := meteor.Compile(script, reg)
	if err != nil {
		log.Fatal(err)
	}
	if !*noopt {
		st := dataflow.Optimize(compiled.Plan)
		fmt.Printf("optimizer: %d chains considered, %d swaps applied\n", st.Chains, st.Swaps)
	}
	if *showPlan {
		fmt.Printf("plan (%d operators):\n%s", compiled.Plan.Size(), compiled.Plan.String())
		return
	}

	// Feed raw pages from the synthetic web.
	var recs []dataflow.Record
	for _, h := range sys.Set.Web.Hosts {
		for i := 1; i < h.Pages && len(recs) < *docs; i++ {
			p, err := sys.Set.Web.Fetch(synthweb.PageURL(h.Name, i))
			if err != nil {
				continue
			}
			recs = append(recs, dataflow.Record{"id": p.URL, "html": string(p.Body)})
		}
		if len(recs) >= *docs {
			break
		}
	}
	inputs := map[string][]dataflow.Record{}
	for _, name := range compiled.Sources {
		inputs[name] = recs
	}

	out, stats, err := meteor.Run(src, reg, inputs, !*noopt, dataflow.ExecConfig{DoP: *dop})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed in %s with %d UDF errors\n", stats.Wall.Round(1e6), stats.TotalErrors())
	for name, rs := range out {
		fmt.Printf("sink %-14s %d records\n", name, len(rs))
	}
}
