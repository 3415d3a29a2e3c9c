package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Comparison against a checked-in parallel baseline (BENCH_parallel.json).
// Raw wall times are incomparable across machines, so the comparison first
// calibrates: the median wall ratio (current/baseline) over all matched
// entries estimates the machine-speed factor, and each entry is then judged
// by its ratio relative to that median. A uniform 2x-slower machine
// calibrates away; one benchmark regressing against the others does not.
// Macro-state counts are deterministic and must match exactly — a drift
// there is a functional change, not noise.

// CompareRow is one entry of a baseline comparison.
type CompareRow struct {
	Name                string  `json:"name"`
	BaselineWallNs      int64   `json:"baselineWallNs"`
	WallNs              int64   `json:"wallNs"`
	Ratio               float64 `json:"ratio"`     // wall / baselineWall, raw
	NormRatio           float64 `json:"normRatio"` // ratio / calibration
	MacroStates         int     `json:"macroStates"`
	BaselineMacroStates int     `json:"baselineMacroStates"`
	// Verdict is "ok", "slower" (normRatio over tolerance), "states-drift"
	// (deterministic counter mismatch), or "noisy" (baseline too short to
	// gate; reported but never failed).
	Verdict string `json:"verdict"`
}

// CompareReport is the outcome of comparing a run against a baseline.
type CompareReport struct {
	BaselinePath string       `json:"baselinePath"`
	Tolerance    float64      `json:"tolerance"`
	Calibration  float64      `json:"calibration"` // median wall ratio
	Rows         []CompareRow `json:"rows"`
	// Regressions holds one human-readable line per failing row.
	Regressions []string `json:"regressions,omitempty"`
	// ProcsWarning is non-empty when the baseline's recorded GOMAXPROCS
	// differs from the comparison run's (see CheckProcs).
	ProcsWarning string `json:"procsWarning,omitempty"`
}

// compareMinWall is the gating floor: entries whose baseline wall is below
// it carry too much scheduler noise for a ratio test and are reported as
// "noisy" instead of gated. The heavy entries are the signal. Each wall is
// the minimum of parallelRuns runs, which holds still down to about a
// tenth of a millisecond.
const compareMinWall = 100 * time.Microsecond

// LoadParallelBaseline reads a BENCH_parallel.json file.
func LoadParallelBaseline(path string) ([]ParallelRow, error) {
	b, err := LoadParallelBaselineFile(path)
	if err != nil {
		return nil, err
	}
	return b.Rows, nil
}

// LoadParallelBaselineFile reads a BENCH_parallel.json file including its
// recording-machine metadata.
func LoadParallelBaselineFile(path string) (*ParallelBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b ParallelBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(b.Rows) == 0 {
		return nil, fmt.Errorf("bench: %s: empty baseline", path)
	}
	return &b, nil
}

// CheckProcs compares a baseline's recorded GOMAXPROCS against the current
// run's and returns a human-readable warning when they disagree (empty means
// comparable). The fixpoint runs on one goroutine, but the garbage
// collector and the scheduler use every CPU the run is given, so ratios
// against a baseline recorded at another GOMAXPROCS are not a regression
// signal. Callers either print the warning loudly or, with
// -require-procs-match, turn it into a hard error.
func CheckProcs(b *ParallelBaseline, runProcs int) string {
	switch {
	case b.GoMaxProcs == 0:
		return fmt.Sprintf("baseline records no gomaxprocs (pre-metadata file); current run has GOMAXPROCS=%d — re-record the baseline", runProcs)
	case b.GoMaxProcs != runProcs:
		return fmt.Sprintf("baseline was recorded at GOMAXPROCS=%d but this run has GOMAXPROCS=%d — wall-time ratios are not comparable; re-record the baseline on a matching machine", b.GoMaxProcs, runProcs)
	default:
		return ""
	}
}

// CompareParallel re-runs the parallel experiment and compares the entries
// present in both the run and the baseline, by name. inject multiplies the
// measured wall of matching benchmark names — the selftest hook proving
// the gate trips on a real slowdown.
func CompareParallel(ctx context.Context, baselinePath string, tolerance float64, inject map[string]float64) (*CompareReport, error) {
	base, err := LoadParallelBaselineFile(baselinePath)
	if err != nil {
		return nil, err
	}
	warn := CheckProcs(base, runtime.GOMAXPROCS(0))
	rows, err := ParallelExperiment(ctx)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		if f, ok := inject[rows[i].Name]; ok {
			rows[i].Wall = time.Duration(float64(rows[i].Wall) * f)
		}
	}
	rep, err := compareRows(base.Rows, rows, tolerance)
	if err != nil {
		return nil, err
	}
	rep.BaselinePath = baselinePath
	rep.ProcsWarning = warn
	return rep, nil
}

// compareRows is the pure comparison: calibrate by the median ratio, then
// judge every matched entry. Split from CompareParallel so the gate logic
// is testable without timing anything.
func compareRows(base, cur []ParallelRow, tolerance float64) (*CompareReport, error) {
	if tolerance <= 1 {
		return nil, fmt.Errorf("bench: tolerance %.2f must be > 1", tolerance)
	}
	baseBy := map[string]ParallelRow{}
	for _, r := range base {
		baseBy[r.Name] = r
	}
	rep := &CompareReport{Tolerance: tolerance}
	var ratios []float64
	for _, r := range cur {
		b, ok := baseBy[r.Name]
		if !ok || b.Wall <= 0 {
			continue
		}
		row := CompareRow{
			Name:           r.Name,
			BaselineWallNs: int64(b.Wall), WallNs: int64(r.Wall),
			Ratio:       float64(r.Wall) / float64(b.Wall),
			MacroStates: r.MacroStates, BaselineMacroStates: b.MacroStates,
		}
		rep.Rows = append(rep.Rows, row)
		ratios = append(ratios, row.Ratio)
	}
	if len(rep.Rows) == 0 {
		return nil, fmt.Errorf("bench: no experiment entry matches the baseline (names drifted)")
	}
	rep.Calibration = median(ratios)
	for i := range rep.Rows {
		row := &rep.Rows[i]
		row.NormRatio = row.Ratio / rep.Calibration
		switch {
		case row.MacroStates != row.BaselineMacroStates:
			row.Verdict = "states-drift"
			rep.Regressions = append(rep.Regressions, fmt.Sprintf(
				"%s: macro-states %d, baseline %d (deterministic counter drifted)",
				row.Name, row.MacroStates, row.BaselineMacroStates))
		case row.BaselineWallNs < int64(compareMinWall):
			row.Verdict = "noisy"
		case row.NormRatio > tolerance:
			row.Verdict = "slower"
			rep.Regressions = append(rep.Regressions, fmt.Sprintf(
				"%s: %.2fx slower than baseline after calibration (tolerance %.2fx; raw %s vs %s)",
				row.Name, row.NormRatio, tolerance,
				time.Duration(row.WallNs).Round(time.Microsecond),
				time.Duration(row.BaselineWallNs).Round(time.Microsecond)))
		default:
			row.Verdict = "ok"
		}
	}
	return rep, nil
}

// median of an unsorted, non-empty slice (the even case averages the two
// middle values).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// CompareTable formats a comparison for humans.
func CompareTable(rep *CompareReport) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Parallel baseline comparison (calibration %.2fx, tolerance %.2fx)", rep.Calibration, rep.Tolerance),
		Columns: []string{"benchmark", "baseline", "current", "norm-ratio", "verdict"},
		Notes: []string{
			"norm-ratio is the wall ratio divided by the run's median ratio (machine-speed calibration)",
			fmt.Sprintf("entries with baselines under %s are too noisy to gate and only reported", compareMinWall),
		},
	}
	if rep.ProcsWarning != "" {
		t.Notes = append(t.Notes, "WARNING: "+rep.ProcsWarning)
	}
	for _, r := range rep.Rows {
		t.AddRow(r.Name,
			time.Duration(r.BaselineWallNs).Round(time.Microsecond),
			time.Duration(r.WallNs).Round(time.Microsecond),
			fmt.Sprintf("%.2fx", r.NormRatio), r.Verdict)
	}
	return t
}

// ParseInjectSlowdown parses a comma-separated NAME=FACTOR list (the
// -inject-slowdown selftest flag). An empty input is an empty map.
func ParseInjectSlowdown(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, factor, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bench: inject-slowdown %q: want NAME=FACTOR", part)
		}
		f, err := strconv.ParseFloat(factor, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bench: inject-slowdown %q: factor must be a positive number", part)
		}
		out[name] = f
	}
	return out, nil
}
