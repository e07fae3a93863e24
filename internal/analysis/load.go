package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed and type-checked package, ready to be
// analyzed.
type Package struct {
	PkgPath string

	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	annOnce sync.Once
	ann     *annIndex
}

// annotations returns the package's //cr: annotation index, built once
// and shared by every analyzer pass over the package (Run used to
// rebuild it per analyzer, which was pure rework: the index depends
// only on the parsed files).
func (p *Package) annotations() *annIndex {
	p.annOnce.Do(func() { p.ann = buildAnnIndex(p.Fset, p.Files) })
	return p.ann
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns (as the go tool would, relative to dir) to
// packages, parses their non-test Go sources and type-checks them
// against compiler export data. It shells out to `go list -export
// -deps`, so it needs the go toolchain but no network and no
// third-party modules: this is the same mechanism x/tools/go/packages
// uses, reduced to the single configuration the linters need.
//
// Test files are not loaded: every crlint invariant exempts test code,
// so analyzing package sources alone keeps the loader simple and makes
// `crlint ./...` time proportional to the simulator, not its tests.
//
// Loads are memoized per process on (dir, patterns): the go list
// subprocess plus parsing and type-checking dominate a lint run, and
// every analyzer sees the same immutable packages, so a driver (or a
// test binary exercising several analyzers over the same fixtures) pays
// for the load exactly once. Sources changing under a live process are
// not a supported use; crlint is a run-to-completion tool.
func Load(dir string, patterns ...string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	key := abs + "\x00" + strings.Join(patterns, "\x00")
	loadCache.Lock()
	if pkgs, ok := loadCache.memo[key]; ok {
		loadCache.Unlock()
		return pkgs, nil
	}
	loadCache.Unlock()
	pkgs, err := load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	loadCache.Lock()
	if loadCache.memo == nil {
		loadCache.memo = make(map[string][]*Package)
	}
	loadCache.memo[key] = pkgs
	loadCache.Unlock()
	return pkgs, nil
}

// loadCache memoizes Load results for the life of the process.
var loadCache struct {
	sync.Mutex
	memo map[string][]*Package
}

func load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var targets []*listPkg
	exportFor := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Export != "" {
			exportFor[lp.ImportPath] = lp.Export
		}
		// Vendoring or module remapping: the path written in source
		// differs from the resolved package; alias its export data.
		for as, actual := range lp.ImportMap {
			if e, ok := exportFor[actual]; ok && exportFor[as] == "" {
				exportFor[as] = e
			}
		}
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exportFor[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(e)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, lp := range targets {
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, f := range lp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, f), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			files = append(files, af)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		var tcErr error
		conf := types.Config{
			Importer: imp,
			Sizes:    types.SizesFor("gc", runtime.GOARCH),
			Error: func(err error) {
				if tcErr == nil {
					tcErr = err
				}
			},
		}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if tcErr == nil {
			tcErr = err
		}
		if tcErr != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, tcErr)
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   lp.ImportPath,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// Finding is one positioned diagnostic from one analyzer.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
	// Escape is the //cr: annotation name that would justify the
	// finding, when one applies (see Diagnostic.Escape).
	Escape string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// Run applies every analyzer to every package and returns the findings
// sorted by position. Analyzer errors (not diagnostics) abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				ann:       pkg.annotations(),
			}
			pass.Report = func(d Diagnostic) {
				out = append(out, Finding{
					Analyzer: a.Name,
					Position: pkg.Fset.Position(d.Pos),
					Message:  d.Message,
					Escape:   d.Escape,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Position, out[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
