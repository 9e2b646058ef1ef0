// Command lintx runs the repository's domain static analyzers
// (internal/analysis/checks) over one or more package patterns and
// reports invariant violations: nondeterminism (wall clock, map
// iteration order), copied locks, leaked goroutines, swallowed
// write-path errors, and unstable metric names.
//
// Usage:
//
//	lintx [-json] [-checks a,b,...] [-list] [pattern ...]
//
// Patterns are directories or dir/... walks (default "./..."; testdata,
// hidden, and _-prefixed directories are skipped). Exit status: 0 clean,
// 1 diagnostics reported, 2 usage or load failure.
//
// Suppress a finding with a directive on, or directly above, the line:
//
//	//lintx:ignore <check>[,<check>] <reason>
//
// The reason is mandatory; malformed directives are diagnostics, and so
// are directives that suppress nothing or name no check.
package main

import (
	"flag"
	"fmt"
	"os"

	"webtextie/internal/analysis"
	"webtextie/internal/analysis/checks"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	checksFlag := flag.String("checks", "", "comma-separated subset of analyzers to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	analyzers := checks.All()
	if *list {
		for _, az := range analyzers {
			fmt.Printf("%-12s %s\n", az.Name, az.Doc)
		}
		return
	}
	if *checksFlag != "" {
		subset, unknown := checks.ByName(*checksFlag)
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "lintx: unknown checks %v (see lintx -list)\n", unknown)
			os.Exit(2)
		}
		analyzers = subset
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lintx: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadPatterns(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lintx: %v\n", err)
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, checks.All(), analyzers)
	if cwd, err := os.Getwd(); err == nil {
		diags = analysis.Relativize(diags, cwd)
	}
	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "lintx: %v\n", err)
			os.Exit(2)
		}
	} else {
		if err := analysis.WriteText(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "lintx: %v\n", err)
			os.Exit(2)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lintx: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
