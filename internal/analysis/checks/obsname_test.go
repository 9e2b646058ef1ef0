package checks

import (
	"go/types"
	"path/filepath"
	"testing"
)

// TestNameSpecsNameLiveFunctions: every function a pillar's nameSpec
// checks is declared in that spec's package, as a package-level function
// or a method of one of its types. A row naming a deleted API checks
// nothing and only misleads the reader.
func TestNameSpecsNameLiveFunctions(t *testing.T) {
	for _, spec := range []*nameSpec{&metricNames, &traceNames, &seriesNames, &profNames, &logNames} {
		pkg := loadShared(t, filepath.Join("..", "..", "..", filepath.FromSlash(spec.pkg)))
		for _, a := range spec.args {
			for _, fn := range a.funcs {
				if !declaresFunc(pkg.Types, fn) {
					t.Errorf("%s: the %s row names %s, which the package does not declare", spec.pkg, a.what, fn)
				}
			}
		}
	}
}

// declaresFunc reports whether pkg declares a function, or a method on
// one of its named types, called name.
func declaresFunc(pkg *types.Package, name string) bool {
	scope := pkg.Scope()
	if _, ok := scope.Lookup(name).(*types.Func); ok {
		return true
	}
	for _, n := range scope.Names() {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg, name)
		if _, ok := obj.(*types.Func); ok {
			return true
		}
	}
	return false
}
