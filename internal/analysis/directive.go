package analysis

import (
	"sort"
	"strings"
)

// ignorePrefix introduces a suppression directive. The full grammar is
//
//	//lintx:ignore <check>[,<check>...] <reason>
//
// where <check> is an analyzer name or "all", and <reason> (mandatory) is
// free text explaining why the finding is acceptable. A directive
// suppresses matching diagnostics on its own line (trailing comment) and
// on the line directly below (standalone comment above the offending
// statement).
const ignorePrefix = "//lintx:ignore"

// ignore is one parsed suppression directive.
type ignore struct {
	path      string
	line, col int
	checks    map[string]bool // lower-case names; "all" matches every check
	used      bool            // set by suppressed: it covered a diagnostic
}

// collectIgnores parses every //lintx:ignore directive in the package.
// Malformed directives (no check list, or a missing reason) are returned
// as diagnostics of the pseudo-check "directive" — an unexplained
// suppression is itself a hygiene violation.
func collectIgnores(pkg *Package) ([]ignore, []Diagnostic) {
	var igs []ignore
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Path: pos.Filename, Line: pos.Line, Col: pos.Column,
						Check:   "directive",
						Message: "malformed directive: want //lintx:ignore <check>[,<check>] <reason>",
					})
					continue
				}
				checks := map[string]bool{}
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						checks[strings.ToLower(name)] = true
					}
				}
				igs = append(igs, ignore{path: pos.Filename, line: pos.Line, col: pos.Column, checks: checks})
			}
		}
	}
	return igs, bad
}

// suppressed reports whether a diagnostic is covered by any directive,
// and marks every directive that covers it as used.
func suppressed(d Diagnostic, igs []ignore) bool {
	covered := false
	for i := range igs {
		ig := &igs[i]
		if d.Path != ig.path {
			continue
		}
		if d.Line != ig.line && d.Line != ig.line+1 {
			continue
		}
		if ig.checks["all"] || ig.checks[d.Check] {
			ig.used, covered = true, true
		}
	}
	return covered
}

// stale audits the directives once every analyzer in run has reported
// on their package. A name that is neither "all" nor in known is an
// unknown check. A directive that covered nothing is unused — reported
// only when every check it names ran ("all": when all of known ran), so
// a -checks subset never condemns an ignore it could not have exercised.
// Without this a directive outlives the finding or the check it names
// and silently swallows the next real finding on its line.
func stale(igs []ignore, known, run map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(ig ignore, msg string) {
		out = append(out, Diagnostic{Path: ig.path, Line: ig.line, Col: ig.col, Check: "directive", Message: msg})
	}
	full := true
	for name := range known {
		full = full && run[name]
	}
	for _, ig := range igs {
		names := make([]string, 0, len(ig.checks))
		for name := range ig.checks {
			names = append(names, name)
		}
		sort.Strings(names)
		ran := true
		for _, name := range names {
			switch {
			case name == "all":
				ran = ran && full
			case !known[name]:
				report(ig, "unknown check "+name)
				ran = false
			default:
				ran = ran && run[name]
			}
		}
		if ran && !ig.used {
			report(ig, "unused ignore "+strings.Join(names, ","))
		}
	}
	return out
}
