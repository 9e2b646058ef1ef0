package checks_test

// The dogfood gate: the full analyzer suite over the whole module must
// report zero unsuppressed diagnostics. This is what keeps `make lint`
// green in CI a property of the tree rather than a habit — any new
// finding (or any malformed, unused or unknown-check //lintx:ignore)
// fails `go test` too. It is also the regression test for the analyzers
// themselves: a check that starts over-reporting breaks this test on
// real code, not just on its fixture.

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"webtextie/internal/analysis"
	"webtextie/internal/analysis/checks"
)

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// module is the whole module, loaded and type-checked once per test
// binary: the dogfood lint and the reachability walk share it.
var module struct {
	once sync.Once
	l    *analysis.Loader
	pkgs []*analysis.Package
	err  error
}

// loadModule returns the module root, the loader and every package under
// the root, bench/'s main included (the pattern walk does not stop at its
// go.mod).
func loadModule(t *testing.T) (string, *analysis.Loader, []*analysis.Package) {
	t.Helper()
	root := moduleRoot(t)
	module.once.Do(func() {
		if module.l, module.err = analysis.NewLoader(root); module.err == nil {
			module.pkgs, module.err = module.l.LoadPatterns(filepath.Join(root, "..."))
		}
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return root, module.l, module.pkgs
}

func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	_, _, pkgs := loadModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages — pattern walk is broken", len(pkgs))
	}
	diags := analysis.Run(pkgs, checks.All(), checks.All())
	for _, d := range diags {
		t.Errorf("%s:%d:%d: %s: %s", d.Path, d.Line, d.Col, d.Check, d.Message)
	}
	if len(diags) > 0 {
		t.Errorf("%d unsuppressed diagnostics — fix or add a reasoned //lintx:ignore", len(diags))
	}
}
