// Custom-flow example: extend the operator registry with a user-defined
// operator and run a hand-written Meteor script through the optimizer and
// the parallel executor — the §3.1 "declarative UDF-heavy data flow"
// experience from a library user's perspective.
package main

import (
	"fmt"
	"strings"

	"webtextie"
	"webtextie/internal/dataflow"
	"webtextie/internal/meteor"
)

// The script uses built-in operators plus a custom one (shout_title).
const script = `
-- count question sentences in crawled pages, with a custom operator
$pages  = read from 'web';
$net    = boilerplate_detect $pages;
$en     = language_filter $net with lang=en;
$sents  = annotate_sentences $en;
$loud   = shout_title $sents;
$counted = count_sentences $loud;
write $counted to 'out';
`

func main() {
	sys := webtextie.New(webtextie.QuickConfig())
	base := sys.Registry()

	// A registry that adds one custom operator and falls back to the
	// system registry for everything else.
	reg := meteor.RegistryFunc(func(name string, p meteor.Params) (*dataflow.Op, error) {
		if name == "shout_title" {
			// One annotator, two forms: Fn runs it on a clone, InPlace lets
			// the executor run it on the record it owns.
			shout := func(rec dataflow.Record) error {
				if t, ok := rec["title"].(string); ok {
					rec["title"] = strings.ToUpper(t)
				}
				return nil
			}
			return &dataflow.Op{
				Name: "shout_title", Pkg: dataflow.BASE,
				Reads: []string{"title"}, Writes: []string{"title"}, Selectivity: 1,
				Fn: dataflow.Edit(shout), InPlace: shout,
			}, nil
		}
		return base.Resolve(name, p)
	})

	// Feed 40 raw pages.
	var recs []dataflow.Record
	for _, pg := range sys.Set.Crawl.Relevant {
		if len(recs) >= 40 {
			break
		}
		p, err := sys.Set.Web.Fetch(pg.URL)
		if err != nil {
			continue
		}
		recs = append(recs, dataflow.Record{"id": p.URL, "html": string(p.Body)})
	}

	out, stats, err := meteor.Run(script, reg,
		map[string][]dataflow.Record{"web": recs}, true, dataflow.ExecConfig{DoP: 4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("processed %d pages in %s (%d UDF errors)\n",
		len(recs), stats.Wall.Round(1e6), stats.TotalErrors())
	total := 0
	for _, rec := range out["out"] {
		total += rec["n_sentences"].(int)
	}
	fmt.Printf("%d records reached the sink, %d sentences in total\n", len(out["out"]), total)
}
