package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestRepoIsClean is the merge gate: the whole module must pass every
// analyzer. A finding here means either a real determinism/purity
// violation or a missing //cr: justification — fix the code or justify
// the escape, never weaken the analyzer.
func TestRepoIsClean(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"./..."}, "../..", &out, &errw); code != 0 {
		t.Fatalf("crlint ./... exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
}

// TestFindingsExitStatus runs crlint against a fixture
// tree (which deliberately violates the analyzers) and expects exit 1
// with findings on stdout.
func TestFindingsExitStatus(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"./internal/analysis/rngsource/testdata/src/core/"}, "../..", &out, &errw)
	if code != 1 {
		t.Fatalf("fixture lint exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "rngsource:") {
		t.Errorf("fixture findings missing rngsource diagnostics:\n%s", out.String())
	}
}

// TestOutputFormats pins the two output formats against each other: the
// -json array must carry exactly the findings the human format prints,
// with file/line/col/analyzer/message round-tripping into the human
// line shape and the escape field naming the //cr: annotation that
// would justify each finding.
func TestOutputFormats(t *testing.T) {
	const fixture = "./internal/analysis/snapfields/testdata/src/core/"
	var human, errw bytes.Buffer
	if code := run([]string{fixture}, "../..", &human, &errw); code != 1 {
		t.Fatalf("human lint exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, human.String(), errw.String())
	}
	var jsonOut bytes.Buffer
	errw.Reset()
	if code := run([]string{"-json", fixture}, "../..", &jsonOut, &errw); code != 1 {
		t.Fatalf("-json lint exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, jsonOut.String(), errw.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(jsonOut.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, jsonOut.String())
	}
	humanLines := strings.Split(strings.TrimSpace(human.String()), "\n")
	if len(findings) == 0 || len(findings) != len(humanLines) {
		t.Fatalf("-json carries %d findings, human format %d lines", len(findings), len(humanLines))
	}
	for i, f := range findings {
		want := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		if humanLines[i] != want {
			t.Errorf("finding %d mismatch:\nhuman: %s\njson:  %s", i, humanLines[i], want)
		}
		if f.Analyzer != "snapfields" {
			t.Errorf("finding %d analyzer = %q, want snapfields", i, f.Analyzer)
		}
		if f.Escape == "" || !strings.Contains(f.Message, "//cr:"+f.Escape) {
			t.Errorf("finding %d escape = %q, want the annotation its message names: %s", i, f.Escape, f.Message)
		}
	}
}

// TestJSONEmptyArray checks a clean run emits [] (not null), so CI
// consumers can always parse the artifact.
func TestJSONEmptyArray(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-json", "./internal/flit/"}, "../..", &out, &errw); code != 0 {
		t.Fatalf("-json on clean package exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("-json clean output %q, want []", out.String())
	}
}
