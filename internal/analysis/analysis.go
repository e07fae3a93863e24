// Package analysis is a dependency-free mirror of the
// golang.org/x/tools/go/analysis surface, just large enough to host the
// repo's custom static checkers (see the subpackages detmap, wallclock,
// rngsource, snapfields and shardsafe, and the cmd/crlint driver).
//
// The module is deliberately stdlib-only (see DESIGN.md), so instead of
// importing x/tools this package re-implements the three pieces the
// checkers need: an Analyzer/Pass/Diagnostic vocabulary, a package
// loader built on `go list -export` plus go/types (load.go), and the
// `//cr:` annotation index that lets code justify an exemption from an
// invariant (`//cr:orderinvariant`, `//cr:wallclock`, `//cr:randsource`,
// `//cr:nosnap`, `//cr:unread`, `//cr:sharded`). The API shapes follow
// x/tools closely so the analyzers could be ported to a real go/analysis
// multichecker by swapping imports.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the checker's command-line name (lower case, no spaces).
	Name string
	// Doc is a one-paragraph description of what the checker enforces
	// and which annotation, if any, exempts a finding.
	Doc string
	// Run executes the check against one package and reports findings
	// through pass.Report. It returns an error only for operational
	// failures (diagnostics are not errors).
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver sets it.
	Report func(Diagnostic)

	ann *annIndex
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Escape names the //cr: annotation that would justify this finding
	// ("orderinvariant", "nosnap", ...), without the prefix. Machine
	// consumers (crlint -json) surface it so tooling can distinguish
	// "annotate here" findings from structural ones; the human format
	// leaves it to the message text. Empty when no annotation applies.
	Escape string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportfEscape reports a formatted diagnostic at pos tagged with the
// //cr: annotation name that would justify it (see Diagnostic.Escape).
func (p *Pass) ReportfEscape(pos token.Pos, escape, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Escape: escape})
}

// CorePath reports the simulation-core import path the pass's package
// stands for, applying the testdata fixture mapping (see CorePackage).
func (p *Pass) CorePath() string { return fixturePath(p.Pkg.Path()) }

// IsCore reports whether the pass's package is part of the simulation
// core, where the determinism/cycle-time/randomness invariants apply.
func (p *Pass) IsCore() bool { return CorePackage(p.Pkg.Path()) }

// InTestFile reports whether pos lies in a *_test.go file. Test code is
// exempt from every checker: the invariants guard the simulator itself,
// and tests legitimately use wall-clock deadlines and ad-hoc seeds.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// corePrefixes are the simulation-core packages: everything that runs
// inside (or aggregates) the cycle loop and therefore must be
// deterministic, cycle-timed and seed-driven. harness, cmd/* and the
// traffic generators' wall-clock-free subsets are deliberately absent:
// harness measures real wall time and owns os-level concerns. faults is
// in: the load-coupled hazard process draws inside the cycle loop.
// stats is in: Welford/histogram accumulators run per-cycle and their
// state rides in snapshots, so the same invariants apply.
var corePrefixes = []string{
	"crnet/internal/core",
	"crnet/internal/router",
	"crnet/internal/network",
	"crnet/internal/routing",
	"crnet/internal/sim",
	"crnet/internal/workload",
	"crnet/internal/obs",
	"crnet/internal/invariant",
	"crnet/internal/snapshot",
	"crnet/internal/faults",
	"crnet/internal/stats",
}

// CorePackage reports whether pkgPath is (or, for analyzer test
// fixtures, stands for) a simulation-core package.
//
// Fixture mapping: a package under some `testdata/src/` directory is
// treated as `crnet/internal/<remainder>`, so a fixture named
// testdata/src/core exercises the analyzer exactly as the real
// internal/core would, while testdata/src/harness stays exempt.
func CorePackage(pkgPath string) bool {
	path := fixturePath(pkgPath)
	for _, p := range corePrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// fixturePath rewrites a testdata fixture import path to the core
// package path it stands for; other paths pass through unchanged.
func fixturePath(pkgPath string) string {
	if i := strings.Index(pkgPath, "testdata/src/"); i >= 0 {
		return "crnet/internal/" + pkgPath[i+len("testdata/src/"):]
	}
	return pkgPath
}

// ---- //cr: annotations ----

// Annotation is one parsed `//cr:<name> <justification>` comment.
type Annotation struct {
	Name    string // e.g. "orderinvariant", "sharded"
	Reason  string // free text after the name; may be empty
	Pos     token.Pos
	File    string
	Line    int // line the comment starts on
	EndLine int // last line of the enclosing comment group
}

// annIndex holds every //cr: annotation of a package, keyed by file.
type annIndex struct {
	byPos map[string][]Annotation // filename -> annotations, by line
}

const annPrefix = "//cr:"

// buildAnnIndex scans the files' comments for //cr: directives.
func buildAnnIndex(fset *token.FileSet, files []*ast.File) *annIndex {
	idx := &annIndex{byPos: make(map[string][]Annotation)}
	for _, f := range files {
		for _, cg := range f.Comments {
			endLine := fset.Position(cg.End()).Line
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, annPrefix) {
					continue
				}
				rest := text[len(annPrefix):]
				name := rest
				reason := ""
				if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
					name, reason = rest[:sp], strings.TrimSpace(rest[sp+1:])
				}
				pos := fset.Position(c.Pos())
				idx.byPos[pos.Filename] = append(idx.byPos[pos.Filename], Annotation{
					Name: name, Reason: reason, Pos: c.Pos(),
					File: pos.Filename, Line: pos.Line, EndLine: endLine,
				})
			}
		}
	}
	for _, anns := range idx.byPos {
		sort.Slice(anns, func(i, j int) bool { return anns[i].Line < anns[j].Line })
	}
	return idx
}

// Annotated reports whether node carries annotation name: the directive
// sits on the node's starting line (trailing comment) or its comment
// group ends on one of the two lines directly above (leading comment,
// possibly below other comment lines). Returns the annotation so
// checkers can demand a justification.
func (p *Pass) Annotated(node ast.Node, name string) (Annotation, bool) {
	pos := p.Fset.Position(node.Pos())
	for _, a := range p.ann.byPos[pos.Filename] {
		if a.Name != name {
			continue
		}
		if a.Line == pos.Line || (a.EndLine >= pos.Line-2 && a.EndLine < pos.Line) {
			return a, true
		}
	}
	return Annotation{}, false
}

// FuncAnnotated reports whether the function declaration carries
// annotation name: inside its doc comment, on the line directly above
// it, or trailing on the `func` line itself. Annotations inside the
// body belong to statements, not the function, and do not count.
func (p *Pass) FuncAnnotated(fn *ast.FuncDecl, name string) (Annotation, bool) {
	start := p.Fset.Position(fn.Pos())
	from := start.Line - 1
	if fn.Doc != nil {
		from = p.Fset.Position(fn.Doc.Pos()).Line - 1
	}
	for _, a := range p.ann.byPos[start.Filename] {
		if a.Name == name && a.Line >= from && a.Line <= start.Line {
			return a, true
		}
	}
	return Annotation{}, false
}
