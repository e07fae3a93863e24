// Package crnet holds only this test: the size and reference gate over
// the repository's two design documents. CHANGES.md keeps one short
// entry per change (the evidence lives in the commit messages, where
// `git log` keeps it) and DESIGN.md describes the design the code has
// now, so both stay small enough to read, and neither may name code or
// sections that do not exist.
package crnet

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The bounds, in bytes.
const (
	maxChanges      = 40_000
	maxChangesEntry = 2_000
	maxDesign       = 50_000
)

// codeRoots are the trees a Go path named in DESIGN.md may resolve to.
var codeRoots = []string{"internal", "cmd", "benchmark"}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var entryStart = regexp.MustCompile(`^- PR \d+`)

// changesEntries splits CHANGES.md into its entries, each from one
// `- PR n` line to the next, keyed by that first line. FOUND: and
// MENDED: lines are left out: they record open and mended faults for
// the next change to pick up, not the entry's own change.
func changesEntries(doc string) (heads []string, sizes []int) {
	for _, line := range strings.SplitAfter(doc, "\n") {
		switch {
		case entryStart.MatchString(line):
			head := line
			if len(head) > 60 {
				head = head[:60]
			}
			heads, sizes = append(heads, head), append(sizes, len(line))
		case len(sizes) == 0, strings.HasPrefix(line, "FOUND:"), strings.HasPrefix(line, "MENDED:"):
		default:
			sizes[len(sizes)-1] += len(line)
		}
	}
	return heads, sizes
}

func TestChangesSize(t *testing.T) {
	doc := readDoc(t, "CHANGES.md")
	if len(doc) > maxChanges {
		t.Errorf("CHANGES.md is %d bytes, over %d", len(doc), maxChanges)
	}
	heads, sizes := changesEntries(doc)
	if len(heads) == 0 {
		t.Fatal("CHANGES.md has no `- PR n` entries")
	}
	for i, head := range heads {
		if sizes[i] > maxChangesEntry {
			t.Errorf("CHANGES.md entry %q is %d bytes, over %d", strings.TrimSpace(head), sizes[i], maxChangesEntry)
		}
	}
}

func TestDesignSize(t *testing.T) {
	if n := len(readDoc(t, "DESIGN.md")); n > maxDesign {
		t.Errorf("DESIGN.md is %d bytes, over %d", n, maxDesign)
	}
}

var goPath = regexp.MustCompile("[A-Za-z0-9_./-]*[A-Za-z0-9_]\\.go\\b")

// resolves reports whether a Go path named in DESIGN.md is a file under
// one of codeRoots: as written (`cmd/crsimd/main.go`), below a root
// (`network/shard.go`), or, for a bare file name, anywhere below one.
func resolves(path string, files map[string]bool) bool {
	if files[path] {
		return true
	}
	for _, root := range codeRoots {
		if files[root+"/"+path] {
			return true
		}
	}
	if !strings.Contains(path, "/") {
		for f := range files {
			if strings.HasSuffix(f, "/"+path) {
				return true
			}
		}
	}
	return false
}

// codeFiles lists the .go files under codeRoots, slash-separated and
// relative to the module root.
func codeFiles(t *testing.T) map[string]bool {
	t.Helper()
	files := map[string]bool{}
	for _, root := range codeRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files[filepath.ToSlash(path)] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func TestDesignNamesExistingFiles(t *testing.T) {
	doc := readDoc(t, "DESIGN.md")
	files := codeFiles(t)
	seen := map[string]bool{}
	for _, path := range goPath.FindAllString(doc, -1) {
		if seen[path] {
			continue
		}
		seen[path] = true
		if !resolves(path, files) {
			t.Errorf("DESIGN.md names %s, which is no file under %s", path, strings.Join(codeRoots, ", "))
		}
	}
}

var (
	designSection = regexp.MustCompile(`(?m)^## (\d+)\. `)
	// A citation is DESIGN or DESIGN.md, then one or more §n joined by
	// spaces, commas, "and"/"or" or a comment's line break.
	designCite = regexp.MustCompile(`DESIGN(?:\.md)?(?:[\s/]*(?:,|and|or)?[\s/]*§\d+)+`)
	sectionNum = regexp.MustCompile(`§(\d+)`)
)

func TestCodeCitesExistingSections(t *testing.T) {
	sections := map[string]bool{}
	for _, m := range designSection.FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no `## n. ` sections")
	}
	cites := 0
	for path := range codeFiles(t) {
		src := readDoc(t, path)
		for _, cite := range designCite.FindAllString(src, -1) {
			for _, m := range sectionNum.FindAllStringSubmatch(cite, -1) {
				cites++
				if !sections[m[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which does not exist", path, m[1])
				}
			}
		}
	}
	if cites == 0 {
		t.Error("found no DESIGN.md § citation in the code; the pattern no longer matches how code cites it")
	}
}
