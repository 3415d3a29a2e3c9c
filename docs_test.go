package paramra_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents whose test and command citations must
// resolve.
var citingDocs = []string{"DESIGN.md", "README.md", "TUTORIAL.md", "EXPERIMENTS.md"}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// citedTest matches a test or benchmark name; a trailing * reads as a
	// prefix.
	citedTest = regexp.MustCompile(`\b((?:Test|Benchmark)[A-Z0-9_]\w*)(\*?)`)
	// citedRabench matches a rabench subcommand.
	citedRabench = regexp.MustCompile(`\brabench\s+([a-z][a-z0-9-]*)`)
	declaredTest = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)
	rabenchCase  = regexp.MustCompile(`(?m)^\s*"([a-z0-9-]+)":\s+\w+,$|what == "([a-z0-9-]+)"`)
)

// TestDocsCiteExistingTests: every backticked test or benchmark name in the
// documents is declared by some _test.go file of the repository, the
// benchmark module's included, and every backticked `rabench <sub>` names
// a subcommand rabench has.
func TestDocsCiteExistingTests(t *testing.T) {
	declared := map[string]bool{}
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
		for _, m := range declaredTest.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join("cmd", "rabench", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string]bool{}
	for _, m := range rabenchCase.FindAllStringSubmatch(string(src), -1) {
		subs[m[1]+m[2]] = true
	}
	if !subs["fuzz"] || !subs["report"] || !subs["ablations"] {
		t.Fatalf("rabench subcommands not found in its source: %v", subs)
	}

	resolves := func(name string, prefix bool) bool {
		if !prefix {
			return declared[name]
		}
		for d := range declared {
			if strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range backticked.FindAllStringSubmatch(string(text), -1) {
			for _, m := range citedTest.FindAllStringSubmatch(span[1], -1) {
				if !resolves(m[1], m[2] == "*") {
					t.Errorf("%s cites `%s%s`, which no _test.go declares", doc, m[1], m[2])
				}
			}
			for _, m := range citedRabench.FindAllStringSubmatch(span[1], -1) {
				if !subs[m[1]] {
					t.Errorf("%s cites `rabench %s`, which rabench does not have", doc, m[1])
				}
			}
		}
	}
}
