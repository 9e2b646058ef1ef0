package checks

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files")

// loadFixture loads testdata/src/<name> through the one loader every
// fixture test in this package shares, so the standard library is
// type-checked once per package run, not once per subtest.
func loadFixture(t *testing.T, name string) *analysis.Package {
	t.Helper()
	return loadShared(t, filepath.Join("testdata", "src", name))
}

// loadShared loads the package in dir through the shared loader.
func loadShared(t *testing.T, dir string) *analysis.Package {
	t.Helper()
	fixtures.once.Do(func() { fixtures.loader, fixtures.err = analysis.NewLoader(".") })
	if fixtures.err != nil {
		t.Fatal(fixtures.err)
	}
	pkg, err := fixtures.loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkg
}

var fixtures struct {
	once   sync.Once
	loader *analysis.Loader
	err    error
}

// TestGolden runs each analyzer over its fixture package in
// testdata/src/<check>/ and compares the rendered diagnostics against
// testdata/<check>.golden. Every fixture pairs true positives with clean
// variants and at least one lintx:ignore-suppressed case, so this fails
// on missed findings, on false positives, and — because each golden file
// is non-empty — whenever a check is disabled outright.
func TestGolden(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, az := range All() {
		t.Run(az.Name, func(t *testing.T) {
			pkg := loadFixture(t, az.Name)
			diags := analysis.Run([]*analysis.Package{pkg}, All(), []*analysis.Analyzer{az})
			diags = analysis.Relativize(diags, cwd)
			if len(diags) == 0 {
				t.Fatalf("fixture produced no diagnostics: the %s check is not firing", az.Name)
			}
			var b strings.Builder
			for _, d := range diags {
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			got := b.String()

			golden := filepath.Join("testdata", az.Name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestGolden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics diverge from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestGoldenSuppression proves the fixtures' ignore directives are doing
// work: stripping them must strictly grow each analyzer's finding count.
func TestGoldenSuppression(t *testing.T) {
	for _, az := range All() {
		t.Run(az.Name, func(t *testing.T) {
			pkg := loadFixture(t, az.Name)
			pass := &analysis.Pass{Analyzer: az, Pkg: pkg}
			az.Run(pass)
			raw := len(pass.Diagnostics())
			kept := len(analysis.Run([]*analysis.Package{pkg}, All(), []*analysis.Analyzer{az}))
			if kept >= raw {
				t.Errorf("%s: %d findings survive suppression out of %d raw — fixture has no effective ignore directive", az.Name, kept, raw)
			}
		})
	}
}
