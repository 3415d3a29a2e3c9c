package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paramra/internal/lang"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden .want files")

// fixtureRule names the rule a defect fixture seeds: the file's base name,
// except for the fixtures below.
var fixtureRule = map[string]string{
	"cas-never":                       RuleCASNeverSucceeds,
	"cas-never-interference":          RuleCASNeverSucceeds,
	"unreachable-assert-interference": RuleUnreachableAssert,
}

// TestDefectFixtures runs the linter over every seeded-defect fixture and
// compares the diagnostics against the golden .want file. Each fixture is
// named after the rule it seeds (see fixtureRule), which must appear among
// the findings.
func TestDefectFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "defects", "*.ra"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures found: %v", err)
	}
	ruleSeen := map[string]bool{}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := lang.ParseSystem(string(data))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			ds := AnalyzeSystem(sys)
			if len(ds) == 0 {
				t.Fatalf("fixture %s produced no diagnostics", file)
			}
			var lines []string
			for _, d := range ds {
				lines = append(lines, d.String())
				ruleSeen[d.Rule] = true
			}
			got := strings.Join(lines, "\n") + "\n"
			want := strings.TrimSuffix(file, ".ra") + ".want"
			if *updateGolden {
				if err := os.WriteFile(want, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantData, err := os.ReadFile(want)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(wantData) {
				t.Errorf("diagnostics mismatch for %s:\ngot:\n%swant:\n%s", file, got, wantData)
			}
			seeded := strings.TrimSuffix(filepath.Base(file), ".ra")
			if r, ok := fixtureRule[seeded]; ok {
				seeded = r
			}
			found := false
			for _, d := range ds {
				if d.Rule == seeded {
					found = true
				}
			}
			if !found {
				t.Errorf("fixture %s did not trigger rule %q; got:\n%s", file, seeded, got)
			}
		})
	}
	if *updateGolden {
		return
	}
	// Every lint rule must be exercised by some fixture.
	for _, rule := range []string{
		RuleDeadStore, RuleDeadLoad, RuleUnreachableCode, RuleUnreachableAssert,
		RuleWriteOnlyVar, RuleAssumeFalse, RuleCASNeverSucceeds, RuleUseBeforeDef, RuleEmptyLoop,
		RuleReadOfNeverWrittenValue, RuleWriteValueUnused,
	} {
		if !ruleSeen[rule] {
			t.Errorf("no fixture triggers rule %q", rule)
		}
	}
}

// TestShippedSystemsClean checks ravet has nothing to say about the example
// systems shipped in testdata/systems: no rule, whatever analysis it reads,
// may fire on them, or ravet regresses on its own documentation.
func TestShippedSystemsClean(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "systems", "*.ra"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped systems found: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := lang.ParseSystem(string(data))
		if err != nil {
			t.Fatalf("%s: parse: %v", file, err)
		}
		for _, d := range AnalyzeSystem(sys) {
			t.Errorf("%s: unexpected diagnostic: %s", file, d)
		}
	}
}

// TestLintOneFindingPerFailedAssume: an assume that fails because it tests a
// loaded value its variable never holds is reported as
// read-of-never-written-value only, never also as assume-false; an assume
// that fails for another reason still gets assume-false.
func TestLintOneFindingPerFailedAssume(t *testing.T) {
	sys := mustSystem(t, `system dup { vars f; domain 3; env w; dis c; dis d }
thread w {
  regs a
  a = load f
  assume a == 2
  store f 1
}
thread c {
  regs b
  b = load f
  assume b == 1
  assert false
}
thread d {
  regs k
  k = 1
  assume k == 2
  store f k
}`)
	byPos := map[lang.Pos]map[string]bool{}
	for _, d := range AnalyzeSystem(sys) {
		if byPos[d.Pos] == nil {
			byPos[d.Pos] = map[string]bool{}
		}
		byPos[d.Pos][d.Rule] = true
	}
	reads, falses := 0, 0
	for pos, rules := range byPos {
		if rules[RuleAssumeFalse] && rules[RuleReadOfNeverWrittenValue] {
			t.Errorf("%v: both %s and %s", pos, RuleAssumeFalse, RuleReadOfNeverWrittenValue)
		}
		if rules[RuleReadOfNeverWrittenValue] {
			reads++
		}
		if rules[RuleAssumeFalse] {
			falses++
		}
	}
	// f only ever holds 0: `a == 2` and `b == 1` test never-written values;
	// `k == 2` fails on an assigned register.
	if reads != 2 || falses != 1 {
		t.Errorf("got %d read-of-never-written-value and %d assume-false findings, want 2 and 1:\n%v",
			reads, falses, AnalyzeSystem(sys))
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "f.ra", Pos: lang.Pos{Line: 3, Col: 7}, Rule: "dead-store", Thread: "t", Msg: "m"}
	if got, want := d.String(), "f.ra:3:7: dead-store: thread t: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	d = Diagnostic{Pos: lang.Pos{Line: 2}, Rule: "write-only-var", Msg: "m"}
	if got, want := d.String(), "2: write-only-var: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
