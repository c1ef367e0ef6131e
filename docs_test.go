package rmarace

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteDefinedTests: every backticked Test…, Benchmark… or
// Fuzz… name that DESIGN.md, README.md or EXPERIMENTS.md cites is
// defined by some _test.go file of the repository. A trailing * cites
// every name with that prefix, and at least one must exist.
func TestDocsCiteDefinedTests(t *testing.T) {
	defRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range defRE.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	citeRE := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)(?:[A-Z0-9_]\\w*)?)(\\*?)`")
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citeRE.FindAllStringSubmatch(string(src), -1) {
			name, prefix := m[1], m[2] == "*"
			found := false
			for _, d := range defined {
				if d == name || prefix && strings.HasPrefix(d, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites `%s%s`, which no _test.go file defines", doc, name, m[2])
			}
		}
	}
}

// TestDesignInventoryCoversPackages: every directory under internal/,
// cmd/ or examples/ that holds non-test Go files has a row of its own
// in DESIGN.md §2, the system inventory.
func TestDesignInventoryCoversPackages(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src)
	start := strings.Index(doc, "\n## 2. ")
	end := strings.Index(doc, "\n## 3. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §2 followed by §3")
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(doc[start:end], -1) {
		rows[m[1]] = true
	}
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if dir := filepath.ToSlash(filepath.Dir(path)); !rows[dir] {
				rows[dir] = true // report each directory once
				t.Errorf("DESIGN.md §2 has no row for %s", dir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
