package analysis

// Direct unit tests for the directive layer: //lintx:ignore parsing,
// suppression matching and the unused / unknown-check audit
// (directive.go), against the testdata/directives fixture.

import (
	"go/ast"
	"strings"
	"testing"
)

// loadDirectivesFixture loads the fixture package through the real
// loader, so comment attachment matches production exactly.
func loadDirectivesFixture(t *testing.T) *Package {
	t.Helper()
	l, err := NewLoader("testdata/directives")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir("testdata/directives")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return pkg
}

func TestCollectIgnores(t *testing.T) {
	pkg := loadDirectivesFixture(t)
	igs, bad := collectIgnores(pkg)

	if len(bad) != 1 {
		t.Fatalf("got %d malformed-ignore diagnostics, want 1: %+v", len(bad), bad)
	}
	if bad[0].Check != "directive" || !strings.Contains(bad[0].Message, "lintx:ignore") {
		t.Errorf("malformed diagnostic = %+v", bad[0])
	}

	// The reason-less directive is rejected entirely: it must not appear
	// as a live suppression.
	if len(igs) != 5 {
		t.Fatalf("got %d parsed ignores, want 5: %+v", len(igs), igs)
	}
	wantChecks := []map[string]bool{
		{"maprange": true},
		{"goroleak": true, "maprange": true},
		{"all": true},
		{"maprange": true},
		{"nosuchcheck": true},
	}
	for i, want := range wantChecks {
		got := igs[i].checks
		if len(got) != len(want) {
			t.Errorf("ignore %d: checks = %v, want %v", i, got, want)
			continue
		}
		for name := range want {
			if !got[name] {
				t.Errorf("ignore %d: missing check %q", i, name)
			}
		}
	}
}

func TestSuppressed(t *testing.T) {
	pkg := loadDirectivesFixture(t)
	igs, _ := collectIgnores(pkg)
	preceding, sameLine, blanket := igs[0], igs[1], igs[2]

	diag := func(path string, line int, check string) Diagnostic {
		return Diagnostic{Path: path, Line: line, Check: check, Message: "x"}
	}

	cases := []struct {
		name string
		d    Diagnostic
		want bool
	}{
		{"directive line itself", diag(preceding.path, preceding.line, "maprange"), true},
		{"line below the directive", diag(preceding.path, preceding.line+1, "maprange"), true},
		{"two lines below", diag(preceding.path, preceding.line+2, "maprange"), false},
		{"line above", diag(preceding.path, preceding.line-1, "maprange"), false},
		{"other check", diag(preceding.path, preceding.line, "goroleak"), false},
		{"other file", diag("elsewhere.go", preceding.line, "maprange"), false},
		{"same-line multi-check first", diag(sameLine.path, sameLine.line, "goroleak"), true},
		{"same-line multi-check second", diag(sameLine.path, sameLine.line, "maprange"), true},
		{"all matches any check", diag(blanket.path, blanket.line+1, "goroutine"), true},
	}
	for _, tc := range cases {
		if got := suppressed(tc.d, igs); got != tc.want {
			t.Errorf("%s: suppressed = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunReportsStaleIgnores drives Run over the fixture with a stand-in
// maprange that fires on every package-level var but e and f, and a
// silent goroleak: the ignore above e suppresses nothing, the one above f
// names no analyzer.
func TestRunReportsStaleIgnores(t *testing.T) {
	pkg := loadDirectivesFixture(t)
	maprange := &Analyzer{Name: "maprange", Run: func(p *Pass) {
		for _, f := range p.Files() {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && vs.Names[0].Name < "e" {
						p.Reportf(vs.Pos(), "finding on %s", vs.Names[0].Name)
					}
				}
			}
		}
	}}
	goroleak := &Analyzer{Name: "goroleak", Run: func(*Pass) {}}
	known := []*Analyzer{maprange, goroleak}

	render := func(run []*Analyzer) string {
		var b strings.Builder
		for _, d := range Run([]*Package{pkg}, known, run) {
			b.WriteString(d.String()[strings.LastIndex(d.Path, "/")+1:] + "\n")
		}
		return b.String()
	}
	const malformed = "directives.go:7:1: directive: malformed directive: want //lintx:ignore <check>[,<check>] <reason>\n"
	const unknown = "directives.go:22:1: directive: unknown check nosuchcheck\n"
	cases := []struct {
		name string
		run  []*Analyzer
		want string
	}{
		// var a's finding survives: its ignore has no reason and is rejected.
		{"full set", known, malformed +
			"directives.go:8:5: maprange: finding on a\n" +
			"directives.go:19:1: directive: unused ignore maprange\n" + unknown},
		// A subset judges only the ignores it could have exercised: not
		// maprange's, not the two-check one, not `all`.
		{"subset", known[1:], malformed + unknown},
	}
	for _, tc := range cases {
		if got := render(tc.run); got != tc.want {
			t.Errorf("%s:\n--- got ---\n%s--- want ---\n%s", tc.name, got, tc.want)
		}
	}
}
