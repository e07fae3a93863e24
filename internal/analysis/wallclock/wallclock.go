// Package wallclock implements the crlint analyzer that forbids
// wall-clock reads and waits in simulation-core packages.
//
// The simulator is cycle-timed: every timestamp, timeout and latency in
// the core is an int64 cycle counter, which is what makes runs exactly
// reproducible and lets the harness compare parallel and serial sweeps
// byte for byte. A time.Now or time.Sleep in the core couples results
// to the host's clock and scheduler. Wall-clock concerns (per-point
// durations, sweep timeouts, progress ETAs) belong to the exempt
// harness and cmd layers — see harness.SweepSafe, which measures point
// wall time so sim never has to. The escape annotation is
// `//cr:wallclock <justification>`, for measurement that provably
// cannot influence simulation state.
package wallclock

import (
	"fmt"
	"go/ast"
	"go/types"

	"crnet/internal/analysis"
)

// Analyzer flags wall-clock access in the simulation core.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/Since/Sleep and friends in simulation-core packages " +
		"(cycle counters only); annotate //cr:wallclock to justify an exemption",
	Run: run,
}

// forbidden are the time-package functions and methods that read, wait
// on or arm the wall clock. Types (time.Duration) and pure conversions
// remain allowed: configuration may be expressed in durations as long
// as the core never samples the clock. Reset covers the methods
// (*time.Timer).Reset and (*time.Ticker).Reset — re-arming a timer is a
// clock read by another name.
var forbidden = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "Reset": true,
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
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			fn, isFn := obj.(*types.Func)
			if !isFn || !forbidden[obj.Name()] {
				return true
			}
			if ann, ok := pass.Annotated(sel, "wallclock"); ok {
				if ann.Reason == "" {
					pass.ReportfEscape(sel.Pos(), "wallclock", "//cr:wallclock needs a justification (why can this clock read not influence simulation state?)")
				}
				return true
			}
			pass.ReportfEscape(sel.Pos(), "wallclock",
				"%s reads the wall clock in simulation-core package %s; the core is cycle-timed — move timing to harness/cmd or annotate //cr:wallclock with a justification",
				qualifiedName(fn), pass.CorePath())
			return true
		})
	}
	return nil
}

// qualifiedName renders a time-package function or method for a
// diagnostic: "time.Now" for package-level functions,
// "(*time.Timer).Reset" for methods, so the reader sees exactly which
// clock surface was touched.
func qualifiedName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), nil), fn.Name())
	}
	return "time." + fn.Name()
}
