package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"webtextie/internal/analysis"
)

// Determinism flags reads of the wall clock and imports of math/rand
// outside the packages allowed to touch real time and entropy:
// internal/obs (its stopwatch), internal/obs/prof (the stage profiler)
// and internal/rng (the seeded PRNG wraps its own source). Everything else in the repo is
// specified to be bit-reproducible per seed in virtual-clock units —
// crawler metrics, dataflow plans, corpus generation, experiment tables —
// and a single time.Now in one of those paths silently breaks the
// DoP-equivalence and two-run identity guarantees. Blocking primitives
// (Sleep, timers, tickers) count too: retry backoff and breaker-open
// periods elapse on the virtual clock (crawldb NextEligibleMs), never by
// blocking a goroutine.
//
// Wall-clock timing that is genuinely wanted goes through one of two
// instruments that keep the clock read inside an allowlisted package: a
// duration a program prints through the stopwatch (obs.StartSpan), and
// where the wall time went through a profiler scope (prof.Scope). Neither
// feeds the metric registry, so its snapshots stay byte-comparable.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "wall-clock (time.Now/Since/...) or math/rand use outside internal/obs, internal/obs/prof and internal/rng; " +
		"route timing through the obs stopwatch or a prof scope and randomness through internal/rng",
	Run: runDeterminism,
}

// determinismAllowed are the packages permitted to read real time/entropy.
// internal/obs/prof is its own entry (pkgPathMatches is boundary-exact):
// the profiler brackets stages on the wall clock by design, and its
// exports are outside every byte-identity contract.
var determinismAllowed = []string{"internal/obs", "internal/obs/prof", "internal/rng"}

// wallClockFuncs are the time package functions that read or depend on
// the real clock. Constructors like time.Date and constants like
// time.Millisecond are pure and stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

func runDeterminism(pass *analysis.Pass) {
	for _, allowed := range determinismAllowed {
		if pkgPathMatches(pass.Pkg.PkgPath, allowed) {
			return
		}
	}
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s: deterministic paths must draw randomness from internal/rng", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock: use the virtual clock, the obs stopwatch (obs.StartSpan) or a prof scope", fn.Name())
			}
			return true
		})
	}
}
