// Package detmap implements the crlint analyzer that forbids ranging
// over maps in simulation-core packages.
//
// Go randomizes map iteration order, so a `range m` loop whose body has
// any observable effect makes the simulator's output depend on the
// runtime's per-process hash seed — silently breaking the repo's
// byte-identical reproducibility guarantee (results_quick.txt, the
// parallel-harness determinism pin, checkpoint resume). The analyzer
// accepts two escapes: loops it can prove order-insensitive (a pure
// clearing loop, every statement a delete of the ranged map), and loops
// annotated `//cr:orderinvariant <justification>` for cases whose
// insensitivity needs a human argument.
package detmap

import (
	"go/ast"
	"go/types"

	"crnet/internal/analysis"
)

// Analyzer flags nondeterministic map iteration in the simulation core.
var Analyzer = &analysis.Analyzer{
	Name: "detmap",
	Doc: "forbid range over maps in simulation-core packages unless provably " +
		"order-insensitive or annotated //cr:orderinvariant with a justification",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !pass.IsCore() {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if ann, ok := pass.Annotated(rs, "orderinvariant"); ok {
				if ann.Reason == "" {
					pass.ReportfEscape(rs.Pos(), "orderinvariant", "//cr:orderinvariant needs a justification (why is this loop order-insensitive?)")
				}
				return true
			}
			if clearingLoop(rs) {
				return true
			}
			pass.ReportfEscape(rs.Pos(), "orderinvariant",
				"range over map %s iterates in nondeterministic order in simulation-core package %s; iterate sorted keys or annotate //cr:orderinvariant with a justification",
				types.ExprString(rs.X), pass.CorePath())
			return true
		})
	}
	return nil
}

// clearingLoop reports whether the range loop is provably
// order-insensitive: every statement of its body deletes the ranged
// map's current key, so the net effect (an empty map) is the same for
// any visit order. This is the one pattern the Go spec itself blesses
// (delete during range is well-defined); anything richer — even
// "obviously" commutative accumulation — needs the annotation, because
// float addition, slice appends and callee side effects are all
// order-sensitive in ways a local check cannot rule out.
func clearingLoop(rs *ast.RangeStmt) bool {
	keyID, ok := rs.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return false
	}
	if rs.Value != nil {
		// A used value variable means the body does more than clear.
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if len(rs.Body.List) == 0 {
		return false // empty body: pointless, but also harmless — still flag it
	}
	for _, stmt := range rs.Body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "delete" {
			return false
		}
		if types.ExprString(call.Args[0]) != types.ExprString(rs.X) {
			return false
		}
		if k, ok := call.Args[1].(*ast.Ident); !ok || k.Name != keyID.Name {
			return false
		}
	}
	return true
}
