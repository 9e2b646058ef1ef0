package checks

import (
	"go/ast"
	"go/constant"
	"regexp"
	"slices"

	"webtextie/internal/analysis"
)

// The five observability pillars share one naming contract: a name
// handed to a pillar's API must be a compile-time constant in the
// lower-case dotted grammar
//
//	name    = segment "." segment { "." segment }
//	segment = [a-z0-9_]+          (first segment starts with a letter)
//
// or come from the pillar's one sanctioned builder function, which owns
// the grammar for computed names (the dataflow executor's per-operator
// namers). Constant names keep golden-tested exports stable across
// builds, keep the join keys between pillars (sampling, doctor rules and
// the /traces?err= and /logs?component= URLs their evidence cites)
// intact, and bound every pillar's cardinality — a name interpolated
// from data would grow it without limit. Each pillar is one nameSpec below; runNames is the one AST walk.

// dottedNameRE is the grammar above; labelRE also admits a single
// segment (error classes, attribute keys).
var (
	dottedNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)
	labelRE      = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$`)
)

// nameArg says that the listed functions of a pillar's package take, as
// their first argument, a name matching re; what is the argument's name
// in diagnostics.
type nameArg struct {
	funcs []string
	what  string
	re    *regexp.Regexp
}

// nameSpec is one pillar's naming contract.
type nameSpec struct {
	// pkg is the pillar's package. Calls into it are checked; the
	// package itself is exempt — it composes names it already validated.
	pkg string
	// builder names the sanctioned name-building function.
	builder string
	args    []nameArg
	// grammar formats the finding for a constant that breaks the grammar
	// (what, name); dynamic the one for a non-constant (what, callee).
	grammar, dynamic string
}

const (
	dottedGrammar = "%s %q violates the dotted-name grammar (lower-case segments joined by dots)"
	lowerGrammar  = "%s %q violates the lower-case dotted grammar"
)

var (
	// metricNames: Registry.Counter/Gauge/Histogram keys.
	metricNames = nameSpec{
		pkg: "internal/obs", builder: "MetricName",
		args:    []nameArg{{[]string{"Counter", "Gauge", "Histogram"}, "metric name", dottedNameRE}},
		grammar: dottedGrammar,
		dynamic: "%s passed to %s must be a compile-time constant (or a MetricName builder call): " +
			"dynamic names destabilize snapshot diffs and unbound registry cardinality",
	}
	// traceNames: span/event names are dotted; error classes (the
	// /traces?err= key, flight-recorder pin reasons) and attribute keys
	// (sorted and rendered by every export) may be a single segment.
	traceNames = nameSpec{
		pkg: "internal/obs/trace", builder: "TraceName",
		args: []nameArg{
			{[]string{"Start", "StartSpan", "StartSpanKeyed", "Event"}, "trace name", dottedNameRE},
			{[]string{"Error"}, "trace label", labelRE},
			{[]string{"String", "Int", "Float"}, "trace attr key", labelRE},
		},
		grammar: lowerGrammar,
		dynamic: "%s passed to %s must be a compile-time constant (or a TraceName builder call): " +
			"dynamic names break golden-tested trace exports and unbound the event vocabulary",
	}
	// seriesNames: series.Recorder.Observe keys.
	seriesNames = nameSpec{
		pkg: "internal/obs/series", builder: "SeriesName",
		args:    []nameArg{{[]string{"Observe"}, "series name", dottedNameRE}},
		grammar: dottedGrammar,
		dynamic: "%s passed to %s must be a compile-time constant (or a SeriesName builder call): " +
			"dynamic names fracture the sampling/doctor join and unbound recorder growth",
	}
	// profNames: prof.Profiler.Scope names — the dots say which scope
	// is bracketed inside which in the stage table.
	profNames = nameSpec{
		pkg: "internal/obs/prof", builder: "ScopeName",
		args:    []nameArg{{[]string{"Scope"}, "scope name", dottedNameRE}},
		grammar: "profiler " + dottedGrammar,
		dynamic: "%s passed to %s must be a compile-time constant (or a ScopeName builder call): " +
			"dynamic names break the stage table's nesting and unbound profiler growth",
	}
	// logNames: evlog message names (Logger.Debug/Info/Warn/Error) and
	// component names (Sink.Logger). A message that doubles as a trace
	// event name may come from the trace builder.
	logNames = nameSpec{
		pkg: "internal/obs/evlog", builder: "TraceName",
		args: []nameArg{
			{[]string{"Debug", "Info", "Warn", "Error"}, "log message", dottedNameRE},
			{[]string{"Logger"}, "log component", dottedNameRE},
		},
		grammar: lowerGrammar,
		dynamic: "%s passed to %s must be a compile-time constant: the doctor and " +
			"/logs?component= key on it, and log exports are byte-compared across runs",
	}
)

// MetricName, TraceName, SeriesName and ProfName enforce the naming
// contract at the call sites of their pillar; the event log's half runs
// inside LogCall.
var (
	MetricName = &analysis.Analyzer{
		Name: "metricname",
		Doc: "obs registry keys must be compile-time constants matching the dotted " +
			"lower-case grammar (or built by a MetricName helper)",
		Run: func(pass *analysis.Pass) { runNames(pass, &metricNames) },
	}
	TraceName = &analysis.Analyzer{
		Name: "tracename",
		Doc: "trace span/event names must be compile-time constants in the dotted " +
			"lower-case grammar and attr keys constant lower_snake identifiers " +
			"(or built by a TraceName helper)",
		Run: func(pass *analysis.Pass) { runNames(pass, &traceNames) },
	}
	SeriesName = &analysis.Analyzer{
		Name: "seriesname",
		Doc: "series recorder keys must be compile-time constants matching the dotted " +
			"lower-case grammar (or built by a SeriesName helper)",
		Run: func(pass *analysis.Pass) { runNames(pass, &seriesNames) },
	}
	ProfName = &analysis.Analyzer{
		Name: "profname",
		Doc: "profiler scope names must be compile-time constants matching the dotted " +
			"lower-case grammar (or built by a ScopeName helper)",
		Run: func(pass *analysis.Pass) { runNames(pass, &profNames) },
	}
)

// argFor returns the spec row covering a callee name, or nil.
func (s *nameSpec) argFor(fn string) *nameArg {
	for i := range s.args {
		if slices.Contains(s.args[i].funcs, fn) {
			return &s.args[i]
		}
	}
	return nil
}

// runNames checks every call from the pass's package into spec.pkg.
func runNames(pass *analysis.Pass, spec *nameSpec) {
	if pkgPathMatches(pass.Pkg.PkgPath, spec.pkg) {
		return
	}
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || !pkgPathMatches(fn.Pkg().Path(), spec.pkg) {
				return true
			}
			a := spec.argFor(fn.Name())
			if a == nil {
				return true
			}
			arg := call.Args[0]
			if tv, ok := info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				if name := constant.StringVal(tv.Value); !a.re.MatchString(name) {
					pass.Reportf(arg.Pos(), spec.grammar, a.what, name)
				}
				return true
			}
			if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
				if f := calleeFunc(info, inner); f != nil && f.Name() == spec.builder {
					return true
				}
			}
			pass.Reportf(arg.Pos(), spec.dynamic, a.what, fn.Name())
			return true
		})
	}
}
