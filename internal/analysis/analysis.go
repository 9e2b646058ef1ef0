// Package analysis is a from-scratch, stdlib-only static-analysis
// framework in the spirit of golang.org/x/tools/go/analysis, specialised
// for this repository's invariants. The paper's evaluation is only
// credible because runs are repeatable; our reproduction goes further and
// promises bit-reproducible crawler and dataflow metrics per seed in
// virtual-clock units. Nothing in the compiler enforces that promise —
// wall-clock reads, unordered map iteration, copied locks, leaked
// goroutines, and unstable metric names all slip through `go build`. The
// analyzers built on this framework (internal/analysis/checks, driven by
// cmd/lintx) make those invariants machine-checked.
//
// The framework provides:
//
//   - a module-aware package loader with full go/types type-checking
//     (load.go), so analyzers can resolve what a selector actually refers
//     to instead of pattern-matching source text;
//   - the Analyzer interface and position-carrying Diagnostics;
//   - `//lintx:ignore <check>[,<check>] <reason>` suppression directives
//     (directive.go) — a reason is mandatory, and malformed directives are
//     themselves diagnostics, and so is a directive that suppresses
//     nothing or names no analyzer (run.go);
//   - deterministic text and JSON reporting (report.go).
//
// Analyzers receive one type-checked package at a time and report through
// Pass.Reportf. The runner (Run) applies suppression and sorts
// diagnostics by position so output is stable across runs — the linter
// holds itself to the determinism bar it enforces.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the check in reports and in //lintx:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description `lintx -list` prints.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Path:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, raw — before the
// runner applies //lintx:ignore suppression.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// TypesInfo returns the package's type information.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Diagnostic is one finding, addressed by file position.
type Diagnostic struct {
	Path    string `json:"path"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Path, d.Line, d.Col, d.Check, d.Message)
}
