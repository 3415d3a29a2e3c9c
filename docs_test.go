package paramra_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"paramra/internal/serve"
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
	// optionsExample matches the body of a JSON "options": {…} example,
	// and jsonKey a key in it.
	optionsExample = regexp.MustCompile(`"options":\s*\{([^{}]*)\}`)
	jsonKey        = regexp.MustCompile(`"(\w+)"\s*:`)
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

// TestDocsOptionsExamplesUseRequestKnobs: every key of a JSON "options":
// {…} example in the documents is a knob raserved accepts, the JSON tag of
// a serve.RequestOptions field, so no example sends a knob the server has
// dropped.
func TestDocsOptionsExamplesUseRequestKnobs(t *testing.T) {
	knobs := map[string]bool{}
	rt := reflect.TypeOf(serve.RequestOptions{})
	for i := 0; i < rt.NumField(); i++ {
		if name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); name != "" {
			knobs[name] = true
		}
	}
	if !knobs["budgetMs"] || !knobs["datalog"] {
		t.Fatalf("serve.RequestOptions JSON tags not found: %v", knobs)
	}
	examples := 0
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range optionsExample.FindAllStringSubmatch(string(text), -1) {
			examples++
			for _, k := range jsonKey.FindAllStringSubmatch(m[1], -1) {
				if !knobs[k[1]] {
					t.Errorf("%s: options example {%s} sends %q, which is no serve.RequestOptions knob", doc, m[1], k[1])
				}
			}
		}
	}
	if examples == 0 {
		t.Error("no options example found in the documents")
	}
}
