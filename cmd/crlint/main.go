// Command crlint is the repo's static invariant gate: a multichecker
// for the five custom analyzers under internal/analysis that enforce the
// simulator's determinism (detmap), cycle-time purity (wallclock),
// seed-derivation discipline (rngsource), snapshot coverage (snapfields)
// and shard isolation (shardsafe). See DESIGN.md §6 for why these are
// load-bearing. Allocation freedom is not a lint: `make alloc-gate`
// measures it at run time (DESIGN.md §5).
//
//	go run ./cmd/crlint ./...        # lint the module (make lint does this)
//	crlint ./internal/network/...    # lint a subtree
//	crlint -json ./...               # machine-readable findings (CI artifact)
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"crnet/internal/analysis"
	"crnet/internal/analysis/detmap"
	"crnet/internal/analysis/rngsource"
	"crnet/internal/analysis/shardsafe"
	"crnet/internal/analysis/snapfields"
	"crnet/internal/analysis/wallclock"
)

// analyzers is the suite crlint runs; keep cmd/crlint/main_test.go's
// clean-repo gate in sync with DESIGN.md §6 when extending it.
var analyzers = []*analysis.Analyzer{
	detmap.Analyzer,
	wallclock.Analyzer,
	rngsource.Analyzer,
	snapfields.Analyzer,
	shardsafe.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// run lints the packages the patterns name. dir anchors relative
// patterns so tests can point run at the module root.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of the human format")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: crlint [-json] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "crlint: %v\n", err)
		return 2
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "crlint: %v\n", err)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "crlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "crlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable shape -json emits, one element
// per finding; CI uploads the array as an artifact and turns it into
// source annotations. Escape names the //cr: annotation that would
// justify the finding ("" when none applies).
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Escape   string `json:"escape,omitempty"`
}

// writeJSON renders findings (already position-sorted by analysis.Run)
// as an indented JSON array; an empty run prints [] so consumers can
// always parse the output.
func writeJSON(w io.Writer, findings []analysis.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Position.Filename,
			Line:     f.Position.Line,
			Col:      f.Position.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
			Escape:   f.Escape,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
