package checks

import (
	"go/ast"
	"go/types"

	"webtextie/internal/analysis"
)

// LogCall enforces the event-log discipline that makes the third
// observability pillar trustworthy:
//
//   - no ad-hoc printing outside package main: fmt.Print/Printf/Println,
//     fmt.Fprint* aimed at os.Stdout/os.Stderr, and the std log package
//     are all flagged in library packages. Library code reports through
//     internal/obs/evlog (or returns rendered strings for the cmds to
//     print); stray prints bypass retention, determinism, and the /logs
//     endpoint, and corrupt golden-tested cmd output;
//   - evlog message names (Logger.Debug/Info/Warn/Error) and component
//     names (Sink.Logger) must be compile-time constants in the dotted
//     lower-case grammar shared with metric and trace names — the doctor
//     and /logs?component= key on them, and log exports are compared
//     byte-for-byte across runs.
var LogCall = &analysis.Analyzer{
	Name: "logcall",
	Doc: "no fmt/log printing outside package main (library code logs via " +
		"evlog); evlog msg and component names must be constant dotted " +
		"lower-case identifiers",
	Run: runLogCall,
}

// printFuncs are the fmt functions that write to stdout directly;
// fprintFuncs write to an explicit writer (flagged only for os.Stdout /
// os.Stderr).
var (
	printFuncs  = map[string]bool{"Print": true, "Printf": true, "Println": true}
	fprintFuncs = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}
)

func runLogCall(pass *analysis.Pass) {
	// Binaries own stdout; the evlog package is the exporter layer that
	// renders records (its own formatting is the point, not a violation).
	if pass.Pkg.Types.Name() == "main" || pkgPathMatches(pass.Pkg.PkgPath, "internal/obs/evlog") {
		return
	}
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "fmt":
				if printFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"fmt.%s outside package main bypasses the event log: "+
							"emit through evlog (or return the string for the cmd to print)",
						fn.Name())
				} else if fprintFuncs[fn.Name()] && len(call.Args) > 0 && isStdStream(info, call.Args[0]) {
					pass.Reportf(call.Pos(),
						"fmt.%s to os.%s outside package main bypasses the event log: "+
							"emit through evlog (or return the string for the cmd to print)",
						fn.Name(), stdStreamName(info, call.Args[0]))
				}
			case "log":
				pass.Reportf(call.Pos(),
					"log.%s outside package main bypasses the event log: "+
						"emit through evlog (or return an error for the cmd to handle)",
					fn.Name())
			}
			return true
		})
	}
	runNames(pass, &logNames)
}

// isStdStream reports whether an expression is os.Stdout or os.Stderr.
func isStdStream(info *types.Info, e ast.Expr) bool {
	return stdStreamName(info, e) != ""
}

// stdStreamName returns "Stdout"/"Stderr" for the os package variables,
// "" otherwise.
func stdStreamName(info *types.Info, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return ""
	}
	if n := obj.Name(); n == "Stdout" || n == "Stderr" {
		return n
	}
	return ""
}
