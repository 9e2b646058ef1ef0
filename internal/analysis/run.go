package analysis

import "sort"

// Run applies every analyzer in run to every package, drops diagnostics
// covered by //lintx:ignore directives, reports the directives that
// covered nothing or name no analyzer in known (the full registry, of
// which run is all or a -checks subset), and returns the result sorted
// by position (then check name) so output is deterministic.
func Run(pkgs []*Package, known, run []*Analyzer) []Diagnostic {
	knownNames, runNames := map[string]bool{}, map[string]bool{}
	for _, az := range known {
		knownNames[az.Name] = true
	}
	for _, az := range run {
		runNames[az.Name] = true
	}
	diags := []Diagnostic{}
	for _, pkg := range pkgs {
		igs, bad := collectIgnores(pkg)
		diags = append(diags, bad...)
		for _, az := range run {
			pass := &Pass{Analyzer: az, Pkg: pkg}
			az.Run(pass)
			for _, d := range pass.diags {
				if !suppressed(d, igs) {
					diags = append(diags, d)
				}
			}
		}
		diags = append(diags, stale(igs, knownNames, runNames)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags
}
