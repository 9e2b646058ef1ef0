// Package checks holds the domain analyzers lintx runs over this
// repository. Each encodes one invariant the reproduction's credibility
// rests on:
//
//	determinism  no wall-clock reads, blocking time primitives (Sleep,
//	             timers, tickers) or math/rand outside internal/obs +
//	             internal/rng
//	maprange     no unordered map iteration feeding slices or channels
//	goroleak     no goroutine without a lifecycle signal (WaitGroup, close,
//	             context, or channel it drains)
//	errsink      no discarded errors on store/crawldb write paths
//	metricname   obs registry keys are constants in the dotted-name grammar
//	tracename    trace span/event names are constants in the dotted-name
//	             grammar; attr keys are constant lower_snake identifiers
//	seriesname   series recorder keys are constants in the dotted-name
//	             grammar (the join key of sampling, /timeseries, doctor)
//	profname     profiler scope names are constants in the dotted-name
//	             grammar (the dots say which stage is bracketed
//	             inside which)
//	logcall      no fmt/log printing outside package main (library code
//	             reports via evlog); evlog msg/component names are
//	             constants in the dotted-name grammar
//
// The analyzers are deliberately narrow: they encode this repo's
// conventions, not general Go style, and leave what `go vet` already
// checks (lock copies among it) to make verify's vet step. Suppress a
// finding with `//lintx:ignore <check> <reason>` on or directly above
// the line.
package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"webtextie/internal/analysis"
)

// All returns every analyzer in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		MapRange,
		GoroLeak,
		ErrSink,
		MetricName,
		TraceName,
		SeriesName,
		ProfName,
		LogCall,
	}
}

// ByName resolves a comma-separated list of analyzer names.
func ByName(list string) ([]*analysis.Analyzer, []string) {
	byName := map[string]*analysis.Analyzer{}
	for _, az := range All() {
		byName[az.Name] = az
	}
	var out []*analysis.Analyzer
	var unknown []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if az, ok := byName[name]; ok {
			out = append(out, az)
		} else {
			unknown = append(unknown, name)
		}
	}
	return out, unknown
}

// pkgPathMatches reports whether path is the package named by suffix or a
// module-qualified form of it ("internal/obs" matches both "internal/obs"
// and "webtextie/internal/obs", but not "x/myinternal/obs").
func pkgPathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// calleeFunc resolves the function or method a call expression invokes,
// unwrapping parens and generic instantiation. Returns nil for calls
// through function-typed variables and built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(e.X)
	}
	var obj types.Object
	switch e := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// isPkgCall reports whether a call expression is a selector call on the
// named imported package (e.g. sort.Strings) and returns the function name.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPaths ...string) (string, bool) {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return "", false
	}
	for _, p := range pkgPaths {
		if f.Pkg().Path() == p {
			return f.Name(), true
		}
	}
	return "", false
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// resultErrorIndexes returns the positions of error-typed results of a
// call (using the instantiated signature recorded by the type-checker).
func resultErrorIndexes(info *types.Info, call *ast.CallExpr) []int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	var out []int
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				out = append(out, i)
			}
		}
	default:
		if types.Identical(t, errorType) {
			out = append(out, 0)
		}
	}
	return out
}
