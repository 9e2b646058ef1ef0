package checks

import (
	"go/ast"
	"go/types"

	"webtextie/internal/analysis"
	"webtextie/internal/analysis/callgraph"
)

// HotPathPurity polices the seam between the hot path and the
// observability plane. The hot-path reachability closure deliberately
// stops at internal/obs (see hotReach) — obs code is engineered to its
// own discipline — but the *calls into* that plane from hot code are
// exactly where diagnostics cost leaks into the per-document budget:
// evlog emission renders attributes, sampling hashes keys, registry
// lookups take locks. So inside hot functions, obs calls must either be
// free handle operations (Enabled, Counter.Inc/Add, Gauge.Set, Observe,
// and the trace attr constructors String/Int/Bool, which are cheap
// struct literals consumed by an already-guarded call) or sit inside an
// `if ....Enabled() { ... }` guard, the repo's established pattern for
// keeping log construction off the fast path.
var HotPathPurity = &analysis.Analyzer{
	Name: "hotpathpurity",
	Doc: "obs/evlog calls in functions reachable from a //lintx:hotpath " +
		"root must be free handle operations (Enabled, Inc, Add, Set, " +
		"Observe, attr constructors) or sit behind an Enabled() guard",
	Run: runHotPathPurity,
}

// purityAllowed are the obs-plane operations cheap enough for hot code:
// guard probes, pre-resolved metric handle updates, and the by-value
// trace attr constructors.
// Enter/Exit are the profiler's bracket pair: two clock reads and two
// atomic adds on pre-resolved scope handles, alloc-free by the prof
// package's own AllocsPerRun test.
var purityAllowed = map[string]bool{
	"Enabled": true, "Inc": true, "Add": true, "Set": true, "Observe": true,
	"String": true, "Int": true, "Bool": true,
	"Enter": true, "Exit": true,
}

func runHotPathPurity(pass *analysis.Pass) {
	st, ok := hotReach(pass)
	if !ok {
		return
	}
	// The obs packages themselves are off the hot closure by
	// construction, but guard anyway: if one is ever annotated, its
	// internal calls are its own business.
	if isObsPath(pass.Pkg.PkgPath) {
		return
	}
	info := pass.TypesInfo()
	hotDecls(pass, st, func(fd *ast.FuncDecl, fn *types.Func, chain string) {
		guards := enabledGuardRanges(info, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil || callee.Pkg() == nil || !isObsPath(callee.Pkg().Path()) {
				return true
			}
			if purityAllowed[callee.Name()] {
				return true
			}
			if inGuarded(call.Pos(), guards) {
				return true
			}
			pass.Reportf(call.Pos(),
				"obs call %s in hot path (%s) must be behind an Enabled() guard",
				callgraph.Label(callee), chain)
			return true
		})
	})
}
