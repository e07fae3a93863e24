// Package shardsafe implements the crlint analyzer that proves shard
// isolation statically: code reachable from the per-range phase bodies
// of the cycle kernel must not touch Network-level shared state outside
// the sanctioned seams.
//
// The cycle kernel (internal/network/shard.go, DESIGN.md §5 and §10)
// partitions the nodes into contiguous ranges and runs the node-ordered
// phases one body per range — inline for a single range, on one worker
// goroutine per range otherwise — with the guarantee that results are
// byte-identical for every range count. That only holds — and only
// races are absent — because the bodies confine their side effects to
// three seams: their own range's sink (merged in range order at the
// barrier), the credit mailbox matrix (commutative, applied column-wise
// by the owner), and range-local state reached through the shard
// descriptors. There is one copy of each body, so the discipline binds
// the single-range case as well. A stray write to a Network field from
// a phase body compiles fine and may pass the quick-scale `-race` soak,
// which never schedules the interleaving that corrupts it. shardsafe is
// the static complement to TestShardedMatchesSerial and `make
// race-sharded`.
//
// Mechanically: the roots are the methods whose name starts with
// "shard" (shardWorker, shardRun and the shard* phase bodies); the
// analyzer walks the package-local call graph from them — direct calls
// to same-package functions and methods, function literals inlined —
// and inside every reachable body flags
//
//   - writes (assignments, ++/--) whose target chain is rooted at a
//     receiver/variable of the root methods' type (Network),
//   - calls through func-typed fields of that type (n.tracer(ev)), and
//   - method calls on a pure field chain of that type when the method
//     can mutate it (pointer-receiver or interface method),
//
// unless the chain passes through the `shards` field (the shard
// descriptors ARE the shard-local seam) or the site carries a
// `//cr:sharded <reason>` escape. Escapes attach at three levels: the
// offending statement, the whole function (doc comment), or the struct
// field being touched — the last for fields that are immutable after
// construction (topo) or are the synchronization primitive itself (wg).
// An escape without a justification is itself a finding.
//
// Known soundness limits, covered by the dynamic race gate: writes
// through pointers obtained from helpers (l := n.linkAt(..); l.busy =
// true targets per-link state the executing shard owns), method calls
// whose receiver chain contains an index expression (n.routers[id] is
// per-node state owned by the executing shard), and adapter methods
// invoked through external packages (injPort/fkillPort reach phase code
// via core callbacks the package-local graph cannot see).
package shardsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"crnet/internal/analysis"
)

// Analyzer flags unsanctioned shared-state access in sharded phase code.
var Analyzer = &analysis.Analyzer{
	Name: "shardsafe",
	Doc: "forbid writes to Network-level shared state from code reachable from " +
		"the shard* parallel phase bodies unless routed through the per-shard " +
		"sink, the credit mailbox matrix, or the shard descriptors; annotate " +
		"//cr:sharded to justify an exemption",
	Run: run,
}

// seamField is the owner field whose subtree is the sanctioned
// shard-local seam: each worker touches only its own shard descriptor.
const seamField = "shards"

// rootPrefix marks the per-range phase bodies and what forks them.
const rootPrefix = "shard"

func run(pass *analysis.Pass) error {
	// Shard isolation is a property of the cycle kernel; only the
	// network package (or a fixture standing for it) declares one.
	if pass.CorePath() != "crnet/internal/network" {
		return nil
	}

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
					if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
						if named, ok := tn.Type().(*types.Named); ok {
							structAST[named] = st
						}
					}
				}
			}
		}
	}

	// Roots, grouped by owner (the receiver type of the shard* methods).
	rootsByOwner := map[*types.Named][]*ast.FuncDecl{}
	for fo, d := range declOf {
		if !strings.HasPrefix(fo.Name(), rootPrefix) {
			continue
		}
		recv := fo.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		if named := namedOf(recv.Type()); named != nil {
			rootsByOwner[named] = append(rootsByOwner[named], d)
		}
	}

	for owner, roots := range rootsByOwner {
		ownerStruct, ok := owner.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		s := &scanner{
			pass:        pass,
			owner:       owner,
			ownerStruct: ownerStruct,
			fieldDecl:   fieldDecls(structAST[owner], ownerStruct),
			declOf:      declOf,
			seen:        map[*ast.FuncDecl]bool{},
			reportedAnn: map[token.Pos]bool{},
		}
		for _, r := range roots {
			s.enqueue(r)
		}
		for len(s.queue) > 0 {
			d := s.queue[0]
			s.queue = s.queue[1:]
			s.scan(d)
		}
	}
	return nil
}

// fieldDecls maps top-level field indices of the owner struct to their
// declarations, so field-level //cr:sharded escapes can be resolved.
func fieldDecls(st *ast.StructType, fields *types.Struct) map[int]*ast.Field {
	out := map[int]*ast.Field{}
	if st == nil {
		return out
	}
	idx := 0
	for _, fld := range st.Fields.List {
		n := len(fld.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n && idx < fields.NumFields(); j++ {
			out[idx] = fld
			idx++
		}
	}
	return out
}

// scanner walks the package-local call graph from the shard roots.
type scanner struct {
	pass        *analysis.Pass
	owner       *types.Named
	ownerStruct *types.Struct
	fieldDecl   map[int]*ast.Field
	declOf      map[*types.Func]*ast.FuncDecl
	queue       []*ast.FuncDecl
	seen        map[*ast.FuncDecl]bool
	reportedAnn map[token.Pos]bool // empty-reason escapes already reported
}

func (s *scanner) enqueue(d *ast.FuncDecl) {
	if d == nil || d.Body == nil || s.seen[d] {
		return
	}
	s.seen[d] = true
	s.queue = append(s.queue, d)
}

func (s *scanner) enqueueObj(obj types.Object) {
	fo, ok := obj.(*types.Func)
	if !ok || fo.Pkg() != s.pass.Pkg {
		return
	}
	s.enqueue(s.declOf[fo])
}

// scan inspects one reachable function body. A function-level
// //cr:sharded escape vouches for the whole body including its callees.
func (s *scanner) scan(d *ast.FuncDecl) {
	if ann, ok := s.pass.FuncAnnotated(d, "sharded"); ok {
		if ann.Reason == "" && !s.reportedAnn[ann.Pos] {
			s.reportedAnn[ann.Pos] = true
			s.pass.ReportfEscape(d.Pos(), "sharded",
				"//cr:sharded needs a justification (why is %s safe to run from shard workers?)", d.Name.Name)
		}
		return
	}
	fname := d.Name.Name
	ast.Inspect(d.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				s.checkWrite(lhs, n, fname)
			}
		case *ast.IncDecStmt:
			s.checkWrite(n.X, n, fname)
		case *ast.CallExpr:
			s.checkCall(n, fname)
		}
		return true
	})
}

// checkWrite flags an assignment or ++/-- whose target chain is rooted
// at an owner-typed variable and does not pass through the shard seam.
func (s *scanner) checkWrite(lhs ast.Expr, stmt ast.Node, fname string) {
	root, inner, _, pure := unwrapChain(lhs)
	if !pure || root == nil || inner == nil || !s.isOwnerIdent(root) {
		return
	}
	sel := s.pass.TypesInfo.Selections[inner]
	if sel == nil || sel.Kind() != types.FieldVal || namedOf(sel.Recv()) != s.owner {
		return
	}
	idx := sel.Index()[0]
	fv := s.ownerStruct.Field(idx)
	if fv.Name() == seamField {
		return
	}
	if s.escaped(stmt, idx) {
		return
	}
	s.pass.ReportfEscape(stmt.Pos(), "sharded",
		"write to shared %s.%s in %s, which shard workers reach; route it through the per-shard sink, "+
			"the credit matrix, or the shard descriptors, or annotate //cr:sharded with a justification",
		s.owner.Obj().Name(), fv.Name(), fname)
}

// checkCall classifies one call: a violation (func-field call or
// mutating method call on a shared field chain), a call-graph edge to
// traverse, or neither.
func (s *scanner) checkCall(call *ast.CallExpr, fname string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		s.enqueueObj(s.pass.TypesInfo.Uses[fun])
	case *ast.SelectorExpr:
		root, inner, sawIndex, pure := unwrapChain(fun)
		if !pure || root == nil || !s.isOwnerIdent(root) {
			// Method on a local, parameter or imported package: traverse
			// when it resolves to a same-package declaration.
			s.enqueueObj(s.pass.TypesInfo.Uses[fun.Sel])
			return
		}
		top := s.pass.TypesInfo.Selections[fun]
		if top == nil {
			return
		}
		var firstIdx int
		switch {
		case inner == fun && top.Kind() == types.MethodVal && len(top.Index()) == 1:
			// A method of the owner itself: a call-graph edge.
			s.enqueueObj(s.pass.TypesInfo.Uses[fun.Sel])
			return
		case inner == fun:
			// Func-typed field, or a method promoted through an embedded
			// field; either way the owner field is Index()[0].
			firstIdx = top.Index()[0]
		default:
			innerSel := s.pass.TypesInfo.Selections[inner]
			if innerSel == nil || innerSel.Kind() != types.FieldVal || namedOf(innerSel.Recv()) != s.owner {
				return
			}
			firstIdx = innerSel.Index()[0]
		}
		fv := s.ownerStruct.Field(firstIdx)
		if fv.Name() == seamField {
			return
		}
		if top.Kind() == types.FieldVal {
			if s.escaped(call, firstIdx) {
				return
			}
			s.pass.ReportfEscape(call.Pos(), "sharded",
				"call through shared func field %s.%s in %s, which shard workers reach; defer it through "+
					"the sink or annotate //cr:sharded with a justification",
				s.owner.Obj().Name(), fv.Name(), fname)
			return
		}
		// Method call on a field chain. Index expressions select
		// per-node state the executing shard owns; the race gate covers
		// the partition argument.
		if sawIndex {
			return
		}
		if !mayMutate(s.pass.TypesInfo.Uses[fun.Sel]) {
			return
		}
		if s.escaped(call, firstIdx) {
			return
		}
		s.pass.ReportfEscape(call.Pos(), "sharded",
			"call to %s on shared field %s.%s in %s, which shard workers reach, may mutate it; "+
				"keep phase effects in the sink or annotate //cr:sharded with a justification",
			fun.Sel.Name, s.owner.Obj().Name(), fv.Name(), fname)
	}
}

// escaped reports whether the violation at node n (touching owner field
// idx) is covered by a //cr:sharded escape on the statement or on the
// field declaration, reporting missing justifications as it goes.
func (s *scanner) escaped(n ast.Node, idx int) bool {
	if ann, ok := s.pass.Annotated(n, "sharded"); ok {
		if ann.Reason == "" {
			s.pass.ReportfEscape(n.Pos(), "sharded",
				"//cr:sharded needs a justification (why is this shared-state access race-free?)")
		}
		return true
	}
	if fld := s.fieldDecl[idx]; fld != nil {
		if ann, ok := s.pass.Annotated(fld, "sharded"); ok {
			if ann.Reason == "" && !s.reportedAnn[ann.Pos] {
				s.reportedAnn[ann.Pos] = true
				s.pass.ReportfEscape(fld.Pos(), "sharded",
					"//cr:sharded needs a justification (why is field %s safe to touch from shard workers?)",
					s.ownerStruct.Field(idx).Name())
			}
			return true
		}
	}
	return false
}

// isOwnerIdent reports whether id names a variable (receiver, parameter
// or local) of the owner type.
func (s *scanner) isOwnerIdent(id *ast.Ident) bool {
	obj := s.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = s.pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	return ok && namedOf(v.Type()) == s.owner
}

// mayMutate reports whether calling obj can mutate its receiver: true
// for pointer-receiver methods and interface methods (unknown
// implementation), false for concrete value-receiver methods, which
// operate on a copy.
func mayMutate(obj types.Object) bool {
	fo, ok := obj.(*types.Func)
	if !ok {
		return true // unresolvable: assume the worst
	}
	sig, ok := fo.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return true
	}
	rt := sig.Recv().Type()
	if _, isPtr := rt.(*types.Pointer); isPtr {
		return true
	}
	return types.IsInterface(rt)
}

// unwrapChain peels selectors, indexing, parens and derefs off e down
// to its root identifier. inner is the innermost selector (the one
// whose X is the root); sawIndex reports indexing anywhere along the
// chain; pure is false when the chain passes through anything else
// (e.g. a call result).
func unwrapChain(e ast.Expr) (root *ast.Ident, inner *ast.SelectorExpr, sawIndex bool, pure bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, inner, sawIndex, true
		case *ast.SelectorExpr:
			inner = x
			e = x.X
		case *ast.IndexExpr:
			sawIndex = true
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, nil, false, false
		}
	}
}

// namedOf unwraps pointers to the defined type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
