package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"webtextie/internal/analysis"
)

// MapRange flags range loops over maps whose bodies emit into an ordered
// sink — appending to a slice declared outside the loop, or sending on a
// channel — without a subsequent sort in the same block. Go randomizes
// map iteration order per run, so such loops are exactly how silent
// nondeterminism enters otherwise bit-reproducible outputs (snapshot
// diffs, fetch lists, report tables).
//
// It also flags an argmin/argmax over a map: `if v < best { best, arg =
// v, k }` keeps the first key to reach the winning value, so equal values
// resolve by iteration order (langid.Identify chose between equidistant
// languages this way). A comparison of the keys themselves has no ties,
// and a condition that breaks ties on the key (`v < best || v == best &&
// k < arg`) is not a bare strict comparison; neither is flagged.
//
// Loops that only aggregate (sums, counts, set inserts) are order-
// independent and are not flagged. The accepted fix is the idiom used
// throughout the repo: collect keys, sort them, then iterate the sorted
// slice — or sort the collected output before it escapes.
var MapRange = &analysis.Analyzer{
	Name: "maprange",
	Doc: "map iteration emitting to a slice or channel without a subsequent sort, " +
		"or picking a winning key by a strict comparison; map order is randomized " +
		"per run — sort keys (or the output) before emitting, break ties on the key",
	Run: runMapRange,
}

func runMapRange(pass *analysis.Pass) {
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, stmt := range list {
				if rng, ok := stmt.(*ast.RangeStmt); ok {
					checkMapRange(pass, info, rng, list[i+1:])
				}
			}
			return true
		})
	}
}

// checkMapRange inspects one range statement; following holds the
// statements after it in the same block (where an ordering sort may live).
func checkMapRange(pass *analysis.Pass, info *types.Info, rng *ast.RangeStmt, following []ast.Stmt) {
	tv, ok := info.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}

	sent := false
	targets := map[types.Object]string{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			checkStrictArgBest(pass, info, rng, n)
		case *ast.SendStmt:
			sent = true
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				obj, name := emitTarget(info, n.Lhs[i])
				// A slice rooted in a variable declared inside the loop
				// body never leaks iteration order past one iteration.
				if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()) {
					continue
				}
				targets[obj] = name
			}
		}
		return true
	})

	if sent {
		pass.Reportf(rng.For,
			"range over map sends on a channel: map iteration order is randomized per run")
	}
	for obj, name := range targets {
		if !sortedAfter(info, following, obj) {
			pass.Reportf(rng.For,
				"range over map appends to %q without a subsequent sort: map iteration order is randomized per run", name)
		}
	}
}

// checkStrictArgBest reports an if statement in the body of a map range
// whose condition is one strict comparison not involving the key itself
// and whose body stores the key in a variable that outlives the loop.
func checkStrictArgBest(pass *analysis.Pass, info *types.Info, rng *ast.RangeStmt, ifs *ast.IfStmt) {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return
	}
	key := info.ObjectOf(keyID)
	isKey := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && key != nil && info.ObjectOf(id) == key
	}
	cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.GTR) || isKey(cond.X) || isKey(cond.Y) {
		return
	}
	for _, stmt := range ifs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			continue
		}
		for i, rhs := range as.Rhs {
			if !isKey(rhs) {
				continue
			}
			obj, name := emitTarget(info, as.Lhs[i])
			if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()) {
				continue
			}
			pass.Reportf(ifs.If,
				"range over map keeps key %q in %q on a strict %q: equal values resolve by map iteration order, which is randomized per run",
				keyID.Name, name, cond.Op.String())
		}
	}
}

// emitTarget resolves the variable an append assigns to — the base
// identifier of a plain name or a selector chain (s.out → s), so a
// struct declared inside the loop is correctly treated as loop-local.
// Index expressions (grouping into a map of slices) are ignored — their
// per-key order comes from the value stream, not from this loop's key
// order being observed directly.
func emitTarget(info *types.Info, lhs ast.Expr) (types.Object, string) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return info.ObjectOf(e), e.Name
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			return info.ObjectOf(base), base.Name + "." + e.Sel.Name
		}
	}
	return nil, ""
}

// sortedAfter reports whether any statement after the loop (in the same
// block) passes obj to a sort/slices ordering function.
func sortedAfter(info *types.Info, following []ast.Stmt, obj types.Object) bool {
	for _, stmt := range following {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := isPkgCall(info, call, "sort", "slices"); !ok {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && info.ObjectOf(id) == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
