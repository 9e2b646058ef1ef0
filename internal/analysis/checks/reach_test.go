package checks_test

// The dead-code gate: every top-level declaration of the module must be
// reachable from a program. Tests do not count as programs, so code that
// only a test calls fails here, and so does anything that only such code
// calls. The walk is type-checked: a use is an identifier that go/types
// resolves to the declaration, so two methods that share a name are two
// declarations, not one.
//
// Roots:
//   - every main and init function, and every blank package-level
//     variable (`var _ = ...`), in the module and in bench/ (a separate
//     module over this one; the loader's pattern walk reaches it);
//   - the exported API of the root package;
//   - each method through which a reached type implements an interface
//     declared in the module or in a standard package it imports, since a
//     dynamic call may reach it without naming it.

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"webtextie/internal/analysis"
)

// reachAllowlist holds the declarations kept although no program reaches
// them. A key is a package directory relative to the module root, or that
// directory, a dot and a declaration (methods as Type.Method).
var reachAllowlist = map[string]string{
	"internal/analysis.Pass.Diagnostics": "the raw findings before suppression; TestGoldenSuppression in internal/analysis/checks counts them, across a package boundary no _test.go file can cross",

	"internal/eval": "span-level precision/recall and the 4-set overlap partitions; ROADMAP 10(a) extends its exact-span ScoreSpans",
}

// reachDecl is one top-level declaration: the node whose identifiers it
// uses, the package it was checked in, and its report key.
type reachDecl struct {
	node ast.Node
	pkg  *analysis.Package
	key  string
}

type reacher struct {
	decls   map[types.Object]*reachDecl
	methods map[*types.TypeName][]*types.Func
	ifaces  map[string][]*types.Interface
	seen    map[types.Object]bool
	work    []types.Object
}

// origin maps an instantiated function or field to its generic
// declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func (r *reacher) mark(o types.Object) {
	o = origin(o)
	if r.seen[o] || r.decls[o] == nil {
		return
	}
	r.seen[o] = true
	r.work = append(r.work, o)
}

// run drains the worklist: a reached declaration reaches everything its
// node uses, the named type of a constant or variable (an implicit iota
// spec names none), and, for a type, each method through which it
// implements an interface.
func (r *reacher) run() {
	for len(r.work) > 0 {
		o := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		d := r.decls[o]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := d.pkg.Info.Uses[id]; u != nil {
					r.mark(u)
				}
			}
			return true
		})
		switch o := o.(type) {
		case *types.Const, *types.Var:
			if named, ok := o.Type().(*types.Named); ok {
				r.mark(named.Obj())
			}
		case *types.TypeName:
			ptr := types.NewPointer(o.Type())
			for _, m := range r.methods[o] {
				for _, it := range r.ifaces[m.Name()] {
					if types.Implements(ptr, it) {
						r.mark(m)
						break
					}
				}
			}
		}
	}
}

// interfaces indexes by method name every interface type written in the
// module, and every package-level interface of the standard packages the
// module imports, transitively.
func interfaces(pkgs []*analysis.Package, inModule map[string]bool) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		if !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range pkgs {
		for e, tv := range p.Info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				if it, ok := tv.Type.(*types.Interface); ok {
					add(it)
				}
			}
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		if !inModule[tp.Path()] {
			scope := tp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
					if it, ok := named.Underlying().(*types.Interface); ok {
						add(it)
					}
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
	}
	return byName
}

// receiver returns the named type a method is declared on, nil for a
// plain function.
func receiver(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// declKey names a declaration for reports and the allowlist.
func declKey(rel string, o types.Object) string {
	if f, ok := o.(*types.Func); ok {
		if tn := receiver(f); tn != nil {
			return rel + "." + tn.Name() + "." + o.Name()
		}
	}
	return rel + "." + o.Name()
}

func TestNoTestOnlyDeclarations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, l, pkgs := loadModule(t)
	var modulePath string
	inModule := map[string]bool{}
	for _, p := range pkgs {
		inModule[p.PkgPath] = true
		if p.Dir == root {
			modulePath = p.PkgPath
		}
	}
	if !inModule[modulePath+"/bench"] {
		t.Fatal("bench/ was not loaded: its main package is a root")
	}

	r := &reacher{
		decls:   map[types.Object]*reachDecl{},
		methods: map[*types.TypeName][]*types.Func{},
		ifaces:  interfaces(pkgs, inModule),
		seen:    map[types.Object]bool{},
	}
	var roots []types.Object
	for _, p := range pkgs {
		api := p.PkgPath == modulePath
		rel := strings.TrimPrefix(p.PkgPath, modulePath+"/")
		add := func(id *ast.Ident, node ast.Node) {
			o := p.Info.Defs[id]
			r.decls[o] = &reachDecl{node: node, pkg: p, key: declKey(rel, o)}
			if api && id.IsExported() {
				roots = append(roots, o)
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
					fn := p.Info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
						roots = append(roots, fn)
					}
					if tn := receiver(fn); tn != nil {
						r.methods[tn] = append(r.methods[tn], fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name == "_" {
									// A blank variable is initialised for its
									// effect: root its whole spec.
									o := types.NewVar(id.Pos(), p.Types, "_", nil)
									r.decls[o] = &reachDecl{node: s, pkg: p}
									roots = append(roots, o)
									continue
								}
								add(id, s)
							}
						}
					}
				}
			}
		}
	}
	for _, o := range roots {
		r.mark(o)
	}
	r.run()

	used := map[string]bool{}
	var dead []string
	for o, d := range r.decls {
		if r.seen[o] {
			continue
		}
		if pkgKey, _, _ := strings.Cut(d.key, "."); reachAllowlist[pkgKey] != "" {
			used[pkgKey] = true
			continue
		}
		if reachAllowlist[d.key] != "" {
			used[d.key] = true
			continue
		}
		pos := l.Fset.Position(o.Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		dead = append(dead, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(file), pos.Line, d.key))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no program reaches it", d)
	}
	if len(dead) > 0 {
		t.Errorf("%d declarations only tests reach: delete them, move them into a _test.go file, or allowlist them with a reason", len(dead))
	}
	for key := range reachAllowlist {
		if !used[key] {
			t.Errorf("allowlist entry %q keeps nothing: a program reaches it now, or it is gone", key)
		}
	}
}
