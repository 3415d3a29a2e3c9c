package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// mkRows builds matching baseline/current row pairs from (name, baseline
// wall, current wall) triples, all with identical macro-states.
func mkRows(t *testing.T, triples [][3]any) (base, cur []ParallelRow) {
	t.Helper()
	for _, tr := range triples {
		name := tr[0].(string)
		base = append(base, ParallelRow{Name: name, MacroStates: 100, Wall: tr[1].(time.Duration)})
		cur = append(cur, ParallelRow{Name: name, MacroStates: 100, Wall: tr[2].(time.Duration)})
	}
	return base, cur
}

// TestCompareCalibratesMachineSpeed: a uniformly 3x-slower run is a slower
// machine, not a regression — the median calibration absorbs it.
func TestCompareCalibratesMachineSpeed(t *testing.T) {
	base, cur := mkRows(t, [][3]any{
		{"a", 100 * time.Millisecond, 300 * time.Millisecond},
		{"b", 200 * time.Millisecond, 600 * time.Millisecond},
		{"c", 400 * time.Millisecond, 1200 * time.Millisecond},
	})
	rep, err := compareRows(base, cur, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Calibration != 3.0 {
		t.Errorf("calibration = %v, want 3.0", rep.Calibration)
	}
	if len(rep.Regressions) != 0 {
		t.Errorf("regressions on a uniform slowdown: %v", rep.Regressions)
	}
	for _, r := range rep.Rows {
		if r.Verdict != "ok" {
			t.Errorf("%s: verdict %q, want ok", r.Name, r.Verdict)
		}
	}
}

// TestCompareCatchesSingleRegression: one benchmark 10x slower against an
// otherwise-unchanged run trips the gate.
func TestCompareCatchesSingleRegression(t *testing.T) {
	base, cur := mkRows(t, [][3]any{
		{"a", 100 * time.Millisecond, 100 * time.Millisecond},
		{"b", 200 * time.Millisecond, 200 * time.Millisecond},
		{"c", 400 * time.Millisecond, 4 * time.Second},
	})
	rep, err := compareRows(base, cur, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || !strings.HasPrefix(rep.Regressions[0], "c: ") {
		t.Fatalf("regressions = %v, want exactly c", rep.Regressions)
	}
	for _, r := range rep.Rows {
		want := "ok"
		if r.Name == "c" {
			want = "slower"
		}
		if r.Verdict != want {
			t.Errorf("%s: verdict %q, want %q", r.Name, r.Verdict, want)
		}
	}
}

// TestCompareStatesDrift: deterministic macro-state mismatch fails even
// when timing is identical.
func TestCompareStatesDrift(t *testing.T) {
	base, cur := mkRows(t, [][3]any{{"a", 100 * time.Millisecond, 100 * time.Millisecond}})
	cur[0].MacroStates = 101
	rep, err := compareRows(base, cur, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || rep.Rows[0].Verdict != "states-drift" {
		t.Errorf("rows=%+v regressions=%v, want one states-drift", rep.Rows, rep.Regressions)
	}
}

// TestCompareNoisyFloor: sub-floor baselines are reported but never gated,
// however slow the re-measurement.
func TestCompareNoisyFloor(t *testing.T) {
	base, cur := mkRows(t, [][3]any{
		{"tiny", 50 * time.Microsecond, time.Millisecond},
		{"big", 5 * time.Millisecond, 5 * time.Millisecond},
	})
	rep, err := compareRows(base, cur, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Errorf("regressions = %v, want none (tiny entry is under the noise floor)", rep.Regressions)
	}
	if rep.Rows[0].Verdict != "noisy" || rep.Rows[1].Verdict != "ok" {
		t.Errorf("verdicts = %q/%q, want noisy/ok", rep.Rows[0].Verdict, rep.Rows[1].Verdict)
	}
}

// TestCompareUnmatchedBaseline: no entry name in both the run and the
// baseline is an error, not a silent pass.
func TestCompareUnmatchedBaseline(t *testing.T) {
	base := []ParallelRow{{Name: "a", MacroStates: 1, Wall: time.Second}}
	cur := []ParallelRow{{Name: "b", MacroStates: 1, Wall: time.Second}}
	if _, err := compareRows(base, cur, 2.0); err == nil {
		t.Error("want error on zero matched entries")
	}
	if _, err := compareRows(base, base, 0.5); err == nil {
		t.Error("want error on tolerance <= 1")
	}
}

// TestLoadParallelBaseline round-trips the checked-in JSON shape.
func TestLoadParallelBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	b := ParallelBaseline{GoMaxProcs: 1, NumCPU: 1, Rows: []ParallelRow{
		{Name: "a", MacroStates: 7, Wall: 123456},
	}}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := LoadParallelBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Wall != 123456 || rows[0].MacroStates != 7 {
		t.Errorf("rows = %+v", rows)
	}
	if err := os.WriteFile(path, []byte(`{"rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelBaseline(path); err == nil {
		t.Error("want error on empty baseline")
	}
}

// TestWriteParallelBaseline: the file holds exactly the rows it was given,
// the ones a caller has already printed, and this process's GOMAXPROCS.
func TestWriteParallelBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	rows := []ParallelRow{
		{Name: "a", MacroStates: 7, Wall: 573 * time.Microsecond},
		{Name: "b", MacroStates: 222, Wall: 338 * time.Microsecond},
	}
	if err := WriteParallelBaseline(path, rows); err != nil {
		t.Fatal(err)
	}
	b, err := LoadParallelBaselineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Rows, rows) {
		t.Errorf("rows read back %+v, want %+v", b.Rows, rows)
	}
	if b.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs read back %d, want %d", b.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
}

// TestCheckProcs: a baseline recorded at a different GOMAXPROCS (or one
// predating the metadata) must produce a warning; a matching one must not.
func TestCheckProcs(t *testing.T) {
	match := &ParallelBaseline{GoMaxProcs: 8}
	if w := CheckProcs(match, 8); w != "" {
		t.Errorf("matching procs warned: %q", w)
	}
	mismatch := &ParallelBaseline{GoMaxProcs: 1}
	if w := CheckProcs(mismatch, 8); !strings.Contains(w, "GOMAXPROCS=1") || !strings.Contains(w, "GOMAXPROCS=8") {
		t.Errorf("mismatch warning %q must name both values", w)
	}
	legacy := &ParallelBaseline{}
	if w := CheckProcs(legacy, 8); !strings.Contains(w, "no gomaxprocs") {
		t.Errorf("legacy warning = %q, want a no-metadata message", w)
	}
}

// TestParseInjectSlowdown pins the selftest flag grammar.
func TestParseInjectSlowdown(t *testing.T) {
	got, err := ParseInjectSlowdown("peterson-ra=10,seqlock=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if got["peterson-ra"] != 10 || got["seqlock"] != 2.5 || len(got) != 2 {
		t.Errorf("got %v", got)
	}
	if m, err := ParseInjectSlowdown(""); err != nil || len(m) != 0 {
		t.Errorf("empty: %v %v", m, err)
	}
	for _, bad := range []string{"x", "=3", "a=-1", "a=zero"} {
		if _, err := ParseInjectSlowdown(bad); err == nil {
			t.Errorf("ParseInjectSlowdown(%q): want error", bad)
		}
	}
}
