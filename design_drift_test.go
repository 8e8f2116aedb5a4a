package fusion_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDesignNamesOnlyDefinedTests: every Test, Fuzz or Benchmark function
// DESIGN.md names is defined by some _test.go file of the repository (the
// benchmark module's included), so the document cannot go on citing a test
// that was renamed or deleted as the guard of an invariant.
func TestDesignNamesOnlyDefinedTests(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
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
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	missing := map[string]bool{}
	for _, name := range regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`).FindAllString(string(design), -1) {
		if !defined[name] {
			missing[name] = true
		}
	}
	if len(defined) < 100 {
		t.Fatalf("found only %d test functions: the walk missed the test files", len(defined))
	}
	names := make([]string, 0, len(missing))
	for name := range missing {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Errorf("DESIGN.md names %s, which no _test.go file defines", name)
	}
}
