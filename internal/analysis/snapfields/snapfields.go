// Package snapfields implements the crlint analyzer that proves
// snapshot coverage statically: every field of a checkpointable struct
// must be referenced by both halves of its codec, or carry an explicit
// justification for being excluded.
//
// The repo's resume guarantee (DESIGN.md §8, `make snapshot-pin`) is
// that a run restored from a checkpoint is byte-identical to an
// unbroken one. That guarantee is only as strong as the codecs: a field
// added to a state struct but forgotten in SaveState or LoadState
// compiles cleanly and diverges silently, typically long after the
// restore — exactly the bug class the obs ring `Count` misuse was (PR
// 6), caught then only because a pin test happened to cover the
// configuration. snapfields closes the gap at compile time.
//
// For every struct type in a simulation-core package that has a paired
// codec — methods SaveState/LoadState, or Save/Load — the analyzer
// enumerates the struct's fields via go/types and demands that each
// field be referenced in *both* methods, either directly or inside a
// same-package function or method the codec calls directly (helpers one
// level deep; codecs that bury field access deeper should hoist it or
// annotate). A field that is deliberately not serialized — derived
// state rebuilt on restore, configuration owned by the constructor,
// scratch buffers — carries `//cr:nosnap <reason>` on its declaration;
// the reason is mandatory, an empty annotation is itself a finding.
//
// "Referenced" is deliberately weaker than "serialized": the analyzer
// accepts any selection of the field inside the codec, so it cannot
// tell a write from a validation read. It is a tripwire for forgotten
// fields, not a proof of codec correctness — the snapshot pins remain
// the dynamic half of the guarantee. Types with only half a codec pair
// (e.g. a Save used for export with no Load) are out of scope.
//
// The converse is checked too: an unexported field (of any struct in the
// package, nested ones included) that both halves of some codec
// reference, and that no other function in the package ever reads —
// every other mention is the target of an assignment, a ++/--, or a
// composite-literal key — is state with a writer and no reader. It costs
// a struct slot, checkpoint bytes and a line in each codec half to carry
// a value nothing consumes. Delete such a
// field, or annotate `//cr:unread <reason>` when the reader lives where
// the analyzer cannot see it. Exported fields are skipped for that
// reason: their readers may be in another package.
package snapfields

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"crnet/internal/analysis"
)

// Analyzer flags state-struct fields missing from their snapshot codec.
var Analyzer = &analysis.Analyzer{
	Name: "snapfields",
	Doc: "require every field of a struct with paired SaveState/LoadState (or " +
		"Save/Load) methods in simulation-core packages to be referenced in both, " +
		"directly or via a directly-called same-package helper; annotate " +
		"//cr:nosnap to justify a field excluded from snapshots; a field both " +
		"halves reference but nothing else reads is flagged too (//cr:unread)",
	Run: run,
}

// codecPairs are the method-name pairs that make a struct
// checkpointable. Both pairs are checked independently when a type
// carries both.
var codecPairs = [][2]string{
	{"SaveState", "LoadState"},
	{"Save", "Load"},
}

func run(pass *analysis.Pass) error {
	if !pass.IsCore() {
		return nil
	}

	// Index the package's function declarations (for depth-1 helper
	// resolution) and its struct type declarations.
	declOf := map[*types.Func]*ast.FuncDecl{}
	structAST := map[*types.Named]*ast.StructType{}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if fo, ok := pass.TypesInfo.Defs[d.Name].(*types.Func); ok {
					declOf[fo] = d
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					if named, ok := tn.Type().(*types.Named); ok {
						structAST[named] = st
					}
				}
			}
		}
	}

	// Group methods by receiver type.
	methods := map[*types.Named]map[string]*ast.FuncDecl{}
	for fo, d := range declOf {
		recv := fo.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		named := namedOf(recv.Type())
		if named == nil {
			continue
		}
		if methods[named] == nil {
			methods[named] = map[string]*ast.FuncDecl{}
		}
		methods[named][fo.Name()] = d
	}

	// saved/loaded collect every field either half of any codec touches,
	// and codec the function bodies that make up the codecs, for the
	// never-read check below.
	saved, loaded := map[*types.Var]bool{}, map[*types.Var]bool{}
	codec := map[*ast.FuncDecl]bool{}
	for named, ms := range methods {
		st, ok := structAST[named]
		if !ok {
			continue
		}
		fields, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for _, pair := range codecPairs {
			save, okS := ms[pair[0]]
			load, okL := ms[pair[1]]
			if !okS || !okL {
				continue
			}
			savedIdx := referencedFields(pass, named, codecBodies(pass, save, declOf, codec), saved)
			loadedIdx := referencedFields(pass, named, codecBodies(pass, load, declOf, codec), loaded)
			checkFields(pass, named, st, fields, pair, savedIdx, loadedIdx)
		}
	}
	checkUnread(pass, declOf, structAST, codec, saved, loaded)
	return nil
}

// checkUnread reports the unexported fields that both halves of a codec
// reference and that no function outside the codecs reads.
func checkUnread(pass *analysis.Pass, declOf map[*types.Func]*ast.FuncDecl,
	structAST map[*types.Named]*ast.StructType, codec map[*ast.FuncDecl]bool, saved, loaded map[*types.Var]bool) {
	read := map[*types.Var]bool{}
	for _, d := range declOf {
		if codec[d] || d.Body == nil {
			continue
		}
		// A selector that is the whole target of an assignment or ++/--
		// is a write; every other field selection reads.
		written := map[ast.Expr]bool{}
		ast.Inspect(d.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					written[ast.Unparen(lhs)] = true
				}
			case *ast.IncDecStmt:
				written[ast.Unparen(n.X)] = true
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal && !written[n] {
					read[sel.Obj().(*types.Var)] = true
				}
			}
			return true
		})
	}
	for named, st := range structAST {
		eachField(st, named.Underlying().(*types.Struct), func(fld *ast.Field, _ int, fv *types.Var) {
			if saved[fv] && loaded[fv] && !read[fv] && !fv.Exported() && !fv.Embedded() {
				report(pass, fld, "unread", named.Obj().Name()+"."+fv.Name(),
					"is saved and restored but never read outside its codec; "+
						"delete it, or annotate //cr:unread with where its reader lives")
			}
		})
	}
}

// eachField pairs every declared field of a struct with its types.Var
// and index: one declaration may name several fields, or none when it
// embeds.
func eachField(st *ast.StructType, fields *types.Struct, visit func(fld *ast.Field, idx int, fv *types.Var)) {
	idx := 0
	for _, fld := range st.Fields.List {
		for j := 0; j < max(len(fld.Names), 1) && idx < fields.NumFields(); j++ {
			visit(fld, idx, fields.Field(idx))
			idx++
		}
	}
}

// report files a finding against a field declaration unless it carries
// the escape annotation, which in turn must give its reason.
func report(pass *analysis.Pass, fld *ast.Field, escape, field, finding string) {
	if ann, ok := pass.Annotated(fld, escape); !ok {
		pass.ReportfEscape(fld.Pos(), escape, "field %s %s", field, finding)
	} else if ann.Reason == "" {
		pass.ReportfEscape(fld.Pos(), escape, "//cr:%s needs a justification on %s", escape, field)
	}
}

// checkFields walks the struct's declared fields in source order and
// reports each one missing from either codec half without a justified
// //cr:nosnap escape.
func checkFields(pass *analysis.Pass, named *types.Named, st *ast.StructType,
	fields *types.Struct, pair [2]string, saved, loaded map[int]bool) {
	eachField(st, fields, func(fld *ast.Field, idx int, fv *types.Var) {
		var missing []string
		if !saved[idx] {
			missing = append(missing, pair[0])
		}
		if !loaded[idx] {
			missing = append(missing, pair[1])
		}
		if len(missing) > 0 {
			report(pass, fld, "nosnap", named.Obj().Name()+"."+fv.Name(), fmt.Sprintf(
				"is not referenced in %s (directly or via a directly-called helper); "+
					"a snapshot will silently drop it — serialize it in both %s and %s, or annotate //cr:nosnap with a justification",
				strings.Join(missing, " or "), pair[0], pair[1]))
		}
	})
}

// codecBodies returns one codec half: fn and the same-package functions
// and methods it calls directly (one level of helpers), each also
// recorded in codec.
func codecBodies(pass *analysis.Pass, fn *ast.FuncDecl,
	declOf map[*types.Func]*ast.FuncDecl, codec map[*ast.FuncDecl]bool) []*ast.FuncDecl {
	if fn.Body == nil {
		return nil
	}
	out := []*ast.FuncDecl{fn}
	seen := map[*ast.FuncDecl]bool{fn: true}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if d := calleeDecl(pass, call, declOf); d != nil && d.Body != nil && !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
		return true
	})
	for _, d := range out {
		codec[d] = true
	}
	return out
}

// referencedFields returns the set of top-level field indices of owner
// that the bodies select, and adds every field they select — owner's or
// not — to all. Promoted selections through an embedded field credit the
// embedded field itself: the codec demonstrably reaches into that
// subtree.
func referencedFields(pass *analysis.Pass, owner *types.Named,
	bodies []*ast.FuncDecl, all map[*types.Var]bool) map[int]bool {
	out := map[int]bool{}
	for _, d := range bodies {
		ast.Inspect(d.Body, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sel, ok := pass.TypesInfo.Selections[se]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			all[sel.Obj().(*types.Var)] = true
			if namedOf(sel.Recv()) == owner && len(sel.Index()) > 0 {
				out[sel.Index()[0]] = true
			}
			return true
		})
	}
	return out
}

// calleeDecl resolves a call to a same-package function or method
// declaration, or nil for builtins, externals and indirect calls.
func calleeDecl(pass *analysis.Pass, call *ast.CallExpr,
	declOf map[*types.Func]*ast.FuncDecl) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fo, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fo.Pkg() != pass.Pkg {
		return nil
	}
	return declOf[fo]
}

// namedOf unwraps pointers to the defined type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
