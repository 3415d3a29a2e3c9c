package paramra_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"paramra/internal/bench"
)

// End-to-end tests of the command-line tools: build each binary once, then
// exercise the documented flag combinations and exit codes.

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "paramra-bin")
		if err != nil {
			buildErr = err
			return
		}
		binDir = dir
		for _, tool := range []string{"raverify", "raexplore", "radatalog", "ratqbf", "rabench", "ravet", "raserved", "soak"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

// runTool executes a built binary and returns combined output + exit code.
func runTool(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	dir := buildTools(t)
	cmd := exec.Command(filepath.Join(dir, name), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out)
	}
	return string(out), code
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cliProdCons = `
system prodcons { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
`

const cliSafe = `
system mp { vars x y; domain 2; env p; dis c }
thread p { store x 1; store y 1 }
thread c { regs a b; a = load y; assume a == 1; b = load x; assume b == 0; assert false }
`

func TestCLIRaverify(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	path := writeTemp(t, "pc.ra", cliProdCons)
	out, code := runTool(t, "raverify", path)
	if code != 1 || !strings.Contains(out, "UNSAFE") {
		t.Errorf("unsafe system: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "raverify", "-graph", path)
	if !strings.Contains(out, "dependency graph") {
		t.Errorf("-graph output missing: %s", out)
	}
	safePath := writeTemp(t, "mp.ra", cliSafe)
	out, code = runTool(t, "raverify", safePath)
	if code != 0 || !strings.Contains(out, "SAFE") {
		t.Errorf("safe system: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "raverify", "-datalog", path)
	if code != 1 {
		t.Errorf("datalog backend: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "raverify", "-class", path)
	if code != 0 || !strings.Contains(out, "env(nocas") {
		t.Errorf("-class: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "raverify", "-goal-var", "x", "-goal-val", "2", path)
	if code != 1 {
		t.Errorf("goal mode: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "raverify", "-json", path)
	if code != 1 {
		t.Errorf("-json exit code = %d", code)
	}
	var rep struct {
		Verdict        string `json:"verdict"`
		EnvThreadBound int64  `json:"envThreadBound"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Errorf("-json output not valid JSON: %v\n%s", err, out)
	} else if rep.Verdict != "UNSAFE" || rep.EnvThreadBound != 1 {
		t.Errorf("-json content wrong: %+v", rep)
	}
	_, code = runTool(t, "raverify", filepath.Join(t.TempDir(), "missing.ra"))
	if code != 2 {
		t.Errorf("missing file: code=%d", code)
	}
	_, code = runTool(t, "raverify")
	if code != 2 {
		t.Errorf("no args: code=%d", code)
	}
}

func TestCLIRaexplore(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	path := writeTemp(t, "pc.ra", cliProdCons)
	out, code := runTool(t, "raexplore", "-env", "1", path)
	if code != 1 || !strings.Contains(out, "witness") {
		t.Errorf("explore: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "raexplore", "-env", "0", path)
	if code != 0 {
		t.Errorf("0-env explore: code=%d out=%s", code, out)
	}
	out, _ = runTool(t, "raexplore", "-sweep", "2", path)
	if !strings.Contains(out, "env=0") || !strings.Contains(out, "env=2") {
		t.Errorf("sweep output: %s", out)
	}
}

func TestCLIRadatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	path := writeTemp(t, "pc.ra", cliProdCons)
	out, code := runTool(t, "radatalog", path)
	if code != 1 || !strings.Contains(out, "UNSAFE") {
		t.Errorf("radatalog: code=%d out=%s", code, out)
	}
	dl := writeTemp(t, "tc.dl", "edge(a,b). edge(b,c).\npath(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n?- path(a,c).")
	out, code = runTool(t, "radatalog", dl)
	if code != 0 || !strings.Contains(out, "true") {
		t.Errorf("dl eval: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "radatalog", "-cache", "2", dl)
	if code != 1 || !strings.Contains(out, "false") {
		t.Errorf("cache-bounded dl eval: code=%d out=%s", code, out)
	}
}

// verdictLine returns the text after a tool's "verdict:" label.
func verdictLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "verdict:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// TestCLIRadatalogSkeletonCap: a skeleton cap that cuts the enumeration
// short before any instance holds leaves the verdict unknown. Both systems
// are UNSAFE, and their first skeleton alone shows no violation, so
// radatalog must not call them SAFE — in the default mode (paramra.Verify)
// nor in the in-order -stats listing. The exit code is raverify's for an
// incomplete result.
func TestCLIRadatalogSkeletonCap(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	for _, name := range []string{"prodcons", "peterson"} {
		path := filepath.Join("testdata", "systems", name+".ra")
		for _, mode := range []string{"-stats=false", "-stats"} {
			out, code := runTool(t, "radatalog", "-prepass=false", "-max-skeletons=1", mode, path)
			if v := verdictLine(out); v != "UNKNOWN (limit reached)" || code != 0 {
				t.Errorf("%s %s: verdict %q, exit %d; want UNKNOWN (limit reached), exit 0\n%s",
					name, mode, v, code, out)
			}
		}
	}
}

// TestCLIRadatalogMatchesRaverify: for the same result, radatalog and
// raverify -datalog print the same verdict and exit with the same code.
func TestCLIRadatalogMatchesRaverify(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	for _, name := range []string{"prodcons", "mp", "spinlock"} {
		path := filepath.Join("testdata", "systems", name+".ra")
		for _, prepass := range []string{"-prepass=true", "-prepass=false"} {
			dOut, dCode := runTool(t, "radatalog", prepass, path)
			vOut, vCode := runTool(t, "raverify", "-datalog", prepass, path)
			if verdictLine(dOut) != verdictLine(vOut) || dCode != vCode || verdictLine(dOut) == "" {
				t.Errorf("%s %s: radatalog %q (exit %d), raverify -datalog %q (exit %d)",
					name, prepass, verdictLine(dOut), dCode, verdictLine(vOut), vCode)
			}
		}
	}
}

// TestCLIRadatalogListingMatchesVerify: the -stats listing evaluates the
// instances the default mode (paramra.Verify) evaluates — the same skeleton
// cap, also for -max-skeletons=0, and the same hinted grounding. seqlock is
// SAFE, the prepass leaves it open and its hints shrink the encoding, so
// every instance is listed and the rule counts tell the groundings apart.
func TestCLIRadatalogListingMatchesVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	var src string
	for _, e := range bench.Corpus() {
		if e.Name == "seqlock" {
			src = e.Src
		}
	}
	path := writeTemp(t, "seqlock.ra", src)
	for _, limit := range []string{"-max-skeletons=100000", "-max-skeletons=0"} {
		out, code := runTool(t, "radatalog", limit, path)
		var skeletons, facts, rules int
		for _, line := range strings.Split(out, "\n") {
			if st, ok := strings.CutPrefix(line, "stats:"); ok {
				fmt.Sscanf(strings.TrimSpace(st), "skeletons=%d facts=%d rules=%d", &skeletons, &facts, &rules)
			}
		}
		lout, lcode := runTool(t, "radatalog", limit, "-stats", path)
		listed, sum := 0, 0
		for _, line := range strings.Split(lout, "\n") {
			var i, n int
			if _, err := fmt.Sscanf(line, "instance %d: rules=%d", &i, &n); err == nil {
				listed++
				sum += n
			}
		}
		if skeletons == 0 || verdictLine(out) != "SAFE" || code != 0 {
			t.Fatalf("%s: default mode: %s", limit, out)
		}
		if !strings.Contains(lout, fmt.Sprintf("skeletons: %d (exhaustive=true)", skeletons)) ||
			listed != skeletons || sum != facts+rules || verdictLine(lout) != "SAFE" || lcode != 0 {
			t.Errorf("%s: -stats listed %d instances with %d rules, verdict %q, exit %d; default mode: %d skeletons, %d facts + %d rules",
				limit, listed, sum, verdictLine(lout), lcode, skeletons, facts, rules)
		}
	}
}

func TestCLIRatqbf(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	out, code := runTool(t, "ratqbf", "forall u : (u | ~u)")
	if code != 0 || !strings.Contains(out, "agreement") {
		t.Errorf("ratqbf true formula: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "ratqbf", "-random", "-n", "1", "-seed", "3")
	if code != 0 || !strings.Contains(out, "agreement") {
		t.Errorf("ratqbf random: code=%d out=%s", code, out)
	}
}

func TestCLIRavet(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	defective := writeTemp(t, "defects.ra", `
system s { vars x wonly; domain 3; env t }
thread t { regs a dead; dead = 2; a = load x; store wonly a; store x 1 }
`)
	out, code := runTool(t, "ravet", defective)
	if code != 1 {
		t.Errorf("defective file: code=%d out=%s", code, out)
	}
	for _, rule := range []string{"dead-store", "write-only-var"} {
		if !strings.Contains(out, rule) {
			t.Errorf("missing %q diagnostic in output:\n%s", rule, out)
		}
	}
	if !strings.Contains(out, filepath.Base(defective)+":") && !strings.Contains(out, defective+":") {
		t.Errorf("diagnostics not prefixed with the file name:\n%s", out)
	}
	clean := writeTemp(t, "mp.ra", cliSafe)
	out, code = runTool(t, "ravet", clean)
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Errorf("clean file: code=%d out=%q", code, out)
	}
	out, code = runTool(t, "ravet", "-footprint", clean)
	if code != 0 || !strings.Contains(out, "footprint") {
		t.Errorf("-footprint: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "ravet", "-slice", defective)
	if code != 1 || !strings.Contains(out, "slice") {
		t.Errorf("-slice preview: code=%d out=%s", code, out)
	}
	bad := writeTemp(t, "bad.ra", "system oops {")
	_, code = runTool(t, "ravet", bad)
	if code != 2 {
		t.Errorf("parse error: code=%d", code)
	}
	_, code = runTool(t, "ravet")
	if code != 2 {
		t.Errorf("no args: code=%d", code)
	}
}

// TestCLIRavetJSON locks the machine-readable diagnostic format against a
// golden file (refresh with `go test -run TestCLIRavetJSON -update-golden`).
// The fixture is addressed relatively so the JSON "file" field is stable.
func TestCLIRavetJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	fixture := filepath.Join("testdata", "ravet", "defects.ra")
	out, code := runTool(t, "ravet", "-json", fixture)
	if code != 1 {
		t.Fatalf("defective fixture: code=%d out=%s", code, out)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Rule     string `json:"rule"`
		Severity string `json:"severity"`
		Thread   string `json:"thread"`
		Msg      string `json:"msg"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("-json output not valid JSON: %v\n%s", err, out)
	}
	if len(diags) == 0 {
		t.Fatal("-json emitted no diagnostics for the defective fixture")
	}
	sawSeverity := map[string]bool{}
	for _, d := range diags {
		if d.File != fixture || d.Line == 0 || d.Col == 0 || d.Rule == "" || d.Msg == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		if d.Severity != "info" && d.Severity != "warning" {
			t.Errorf("unknown severity %q in %+v", d.Severity, d)
		}
		sawSeverity[d.Severity] = true
	}
	if !sawSeverity["info"] || !sawSeverity["warning"] {
		t.Errorf("fixture should produce both severities, got %v", sawSeverity)
	}

	golden := filepath.Join("testdata", "ravet", "defects.json.want")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if out != string(want) {
		t.Errorf("-json output drifted from golden:\ngot:\n%swant:\n%s", out, want)
	}

	// A clean file still yields valid JSON: the empty array.
	clean := writeTemp(t, "mp.ra", cliSafe)
	out, code = runTool(t, "ravet", "-json", clean)
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("clean file: code=%d out=%q, want []", code, out)
	}
}

func TestCLISliceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	path := writeTemp(t, "pc.ra", cliProdCons)
	out, code := runTool(t, "raverify", "-slice", path)
	if code != 1 || !strings.Contains(out, "UNSAFE") {
		t.Errorf("raverify -slice verdict changed: code=%d out=%s", code, out)
	}
	if !strings.Contains(out, "slice:") {
		t.Errorf("raverify -slice missing slice report:\n%s", out)
	}
	safePath := writeTemp(t, "mp.ra", cliSafe)
	out, code = runTool(t, "raverify", "-slice", safePath)
	if code != 0 || !strings.Contains(out, "SAFE") {
		t.Errorf("raverify -slice on safe system: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "radatalog", "-slice", path)
	if code != 1 || !strings.Contains(out, "UNSAFE") || !strings.Contains(out, "slice:") {
		t.Errorf("radatalog -slice: code=%d out=%s", code, out)
	}
}

func TestCLIRabench(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	out, code := runTool(t, "rabench", "fig5")
	if code != 0 || !strings.Contains(out, "cost(msg#)") {
		t.Errorf("rabench fig5: code=%d out=%s", code, out)
	}
	_, code = runTool(t, "rabench", "nonsense")
	if code != 2 {
		t.Errorf("bad subcommand: code=%d", code)
	}
}
