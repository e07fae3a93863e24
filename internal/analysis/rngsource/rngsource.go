// Package rngsource implements the crlint analyzer that keeps all
// simulation-core randomness flowing through internal/rng with derived
// seeds.
//
// Two rules. First, math/rand and math/rand/v2 are banned outright in
// core packages: their streams are unspecified across Go releases and
// the top-level functions share seeded-once global state, either of
// which breaks cross-version and cross-worker reproducibility. The
// repo's generators (internal/rng: keyed draws and xoshiro256**
// streams) are the only sanctioned ones. Second, rng.New and rng.At
// must not be fed ad-hoc constant seeds in the core: a literal seed
// hides a stochastic process from the harness's splitmix64 derivation
// (harness.PointSeed), so two sweep points could silently share draws.
// Seeds must arrive through configuration; rng.At's stream, entity and
// counter are constants or state by design and are not checked. The
// escape annotation is `//cr:randsource <justification>`.
package rngsource

import (
	"go/ast"
	"go/types"
	"strconv"

	"crnet/internal/analysis"
)

// Analyzer flags unsanctioned randomness in the simulation core.
var Analyzer = &analysis.Analyzer{
	Name: "rngsource",
	Doc: "forbid math/rand imports and constant rng seeds in simulation-core " +
		"packages; randomness flows through internal/rng with derived seeds " +
		"(annotate //cr:randsource to justify an exemption)",
	Run: run,
}

const rngPath = "crnet/internal/rng"

func run(pass *analysis.Pass) error {
	if !pass.IsCore() {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path != "math/rand" && path != "math/rand/v2" {
				continue
			}
			if ann, ok := pass.Annotated(imp, "randsource"); ok && ann.Reason != "" {
				continue
			}
			pass.ReportfEscape(imp.Pos(), "randsource",
				"%s imported in simulation-core package %s; use crnet/internal/rng (stream is pinned across Go releases and seeded per point)",
				path, pass.CorePath())
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != rngPath {
				return true
			}
			if (fn.Name() != "New" && fn.Name() != "At") || len(call.Args) == 0 {
				return true
			}
			seed := call.Args[0]
			tv, ok := pass.TypesInfo.Types[seed]
			if !ok || tv.Value == nil {
				return true // non-constant seed: derived from config, fine
			}
			if ann, ok := pass.Annotated(call, "randsource"); ok {
				if ann.Reason == "" {
					pass.ReportfEscape(call.Pos(), "randsource", "//cr:randsource needs a justification (why may this stream bypass seed derivation?)")
				}
				return true
			}
			pass.ReportfEscape(seed.Pos(), "randsource",
				"rng.%s with constant seed %s in simulation-core package %s; derive seeds from configuration (e.g. harness.PointSeed) or annotate //cr:randsource with a justification",
				fn.Name(), types.ExprString(seed), pass.CorePath())
			return true
		})
	}
	return nil
}
