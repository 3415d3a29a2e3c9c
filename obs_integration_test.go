package paramra_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"paramra"
	"paramra/internal/bench"
	"paramra/internal/obs"
	"paramra/internal/serve"
)

// Integration tests of the observability layer: the trace a full Verify run
// emits, the Wall/Workers contract of Stats, the final-Progress-snapshot
// contract, and the CLI surface (-trace-out, flag uniformity, rabench
// report, the checked-in parallel baseline).

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/trace_golden.jsonl from the current tracer output")

func mustParse(t *testing.T, src string) *paramra.System {
	t.Helper()
	sys, err := paramra.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return sys
}

// TestStatsWallWorkers pins the satellite contract that every backend
// populates Stats.Wall and Stats.Workers on every path, including the
// fixpoint's early-violation exit that never reaches the engine.
func TestStatsWallWorkers(t *testing.T) {
	ctx := context.Background()
	safe := mustParse(t, cliSafe)
	unsafeSys := mustParse(t, cliProdCons)

	t.Run("fixpoint", func(t *testing.T) {
		res, err := paramra.Verify(ctx, safe, paramra.Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Wall <= 0 || res.Stats.Workers != 2 {
			t.Errorf("Wall=%v Workers=%d, want Wall>0 Workers=2", res.Stats.Wall, res.Stats.Workers)
		}
	})
	t.Run("fixpoint-default-workers", func(t *testing.T) {
		res, err := paramra.Verify(ctx, unsafeSys, paramra.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := runtime.GOMAXPROCS(0); res.Stats.Workers != want {
			t.Errorf("Workers=%d, want GOMAXPROCS=%d", res.Stats.Workers, want)
		}
		if res.Stats.Wall <= 0 {
			t.Errorf("Wall=%v, want >0", res.Stats.Wall)
		}
	})
	t.Run("fixpoint-early-violation", func(t *testing.T) {
		// Goal value 0 is in the initial memory, so the run ends before the
		// engine starts — the path that used to leave Wall/Workers zero.
		res, err := paramra.Verify(ctx, safe, paramra.Options{
			Goal: &paramra.Goal{Var: "x", Val: 0}, Parallelism: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Unsafe || res.Stats.MacroStates != 1 {
			t.Fatalf("unexpected early-path result: %+v", res)
		}
		if res.Stats.Wall <= 0 || res.Stats.Workers != 3 {
			t.Errorf("Wall=%v Workers=%d, want Wall>0 Workers=3", res.Stats.Wall, res.Stats.Workers)
		}
	})
	t.Run("datalog", func(t *testing.T) {
		res, err := paramra.Verify(ctx, safe, paramra.Options{Datalog: true, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Wall <= 0 || res.Stats.Workers < 1 {
			t.Errorf("Wall=%v Workers=%d, want Wall>0 Workers>=1", res.Stats.Wall, res.Stats.Workers)
		}
	})
	t.Run("concrete", func(t *testing.T) {
		res, err := paramra.VerifyInstance(ctx, safe, 1, paramra.Options{
			MaxStates: 100_000, Parallelism: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Wall <= 0 || res.Stats.Workers != 2 {
			t.Errorf("Wall=%v Workers=%d, want Wall>0 Workers=2", res.Stats.Wall, res.Stats.Workers)
		}
	})
}

// progressRecorder collects Progress snapshots. The callback runs on a
// dedicated monitor goroutine, the terminal emission on the caller's; the
// mutex makes the recording race-free without relying on the join.
type progressRecorder struct {
	mu    sync.Mutex
	snaps []paramra.Stats
}

func (p *progressRecorder) cb(s paramra.Stats) {
	p.mu.Lock()
	p.snaps = append(p.snaps, s)
	p.mu.Unlock()
}

// cumulative projects the counter group that must never decrease across
// snapshots (cumulative counts and high-water marks; Wall excluded only
// because it is a duration, monotone trivially).
func cumulative(s paramra.Stats) [12]int64 {
	return [12]int64{
		int64(s.MacroStates), int64(s.DisTransitions), int64(s.EnvConfigs),
		int64(s.EnvMsgs), int64(s.SaturationSteps),
		int64(s.States), int64(s.Transitions),
		int64(s.Skeletons), int64(s.FixpointRounds), int64(s.DatalogAtoms),
		s.DedupHits, s.PeakFrontier,
	}
}

func checkProgress(t *testing.T, rec *progressRecorder, final paramra.Stats) {
	t.Helper()
	rec.mu.Lock()
	snaps := rec.snaps
	rec.mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no Progress emissions")
	}
	if last := snaps[len(snaps)-1]; last != final {
		t.Errorf("final Progress snapshot %+v != returned Stats %+v", last, final)
	}
	for i := 1; i < len(snaps); i++ {
		prev, cur := cumulative(snaps[i-1]), cumulative(snaps[i])
		for k := range cur {
			if cur[k] < prev[k] {
				t.Errorf("snapshot %d: counter %d decreased: %d -> %d", i, k, prev[k], cur[k])
			}
		}
	}
}

// TestFinalProgressEqualsStats pins the Progress contract for all three
// backends at Parallelism 8 over shipped corpus systems, and for the
// prepass schedule at raserved's defaults: snapshots are monotonically
// non-decreasing and the last one is exactly the returned Stats.
func TestFinalProgressEqualsStats(t *testing.T) {
	ctx := context.Background()

	for _, name := range []string{"mp.ra", "prodcons.ra", "peterson.ra"} {
		t.Run("fixpoint/"+name, func(t *testing.T) {
			sys, err := paramra.ParseFile(filepath.Join("testdata", "systems", name))
			if err != nil {
				t.Fatal(err)
			}
			rec := &progressRecorder{}
			res, err := paramra.Verify(ctx, sys, paramra.Options{Parallelism: 8, Progress: rec.cb})
			if err != nil {
				t.Fatal(err)
			}
			checkProgress(t, rec, res.Stats)
		})
	}

	// With raserved's defaults the prepass schedule runs budgeted fixpoint
	// rounds before an unbudgeted one on corr2-coherence. With
	// MaxMacroStates 1 on env-chain-escalation, the fixpoint round at the
	// full cap reports its snapshots and the replay decides after it.
	served, err := serve.Config{}.Defaulted().Options(serve.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	served.Parallelism = 8
	for name, maxMacro := range map[string]int{"corr2-coherence": 0, "env-chain-escalation": 1} {
		t.Run("served/"+name, func(t *testing.T) {
			e, ok := bench.ByName(name)
			if !ok {
				t.Fatalf("no corpus entry %s", name)
			}
			rec := &progressRecorder{}
			opts := served
			opts.MaxMacroStates = maxMacro
			opts.Progress = rec.cb
			res, err := paramra.Verify(ctx, e.System(), opts)
			if err != nil {
				t.Fatal(err)
			}
			checkProgress(t, rec, res.Stats)
		})
	}

	t.Run("datalog", func(t *testing.T) {
		rec := &progressRecorder{}
		res, err := paramra.Verify(ctx, mustParse(t, cliSafe), paramra.Options{
			Datalog: true, Parallelism: 8, Progress: rec.cb,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkProgress(t, rec, res.Stats)
	})

	t.Run("concrete", func(t *testing.T) {
		rec := &progressRecorder{}
		res, err := paramra.VerifyInstance(ctx, mustParse(t, cliProdCons), 2, paramra.Options{
			MaxStates: 200_000, Parallelism: 8, Progress: rec.cb,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkProgress(t, rec, res.Stats)
	})
}

// TestTraceGolden runs a 1-worker Verify of a fixed system under a
// deterministic counter clock and compares the emitted JSONL byte-for-byte
// against the checked-in golden file. Span IDs, nesting, names and attrs
// are all deterministic at Parallelism 1; regenerate with
// `go test -run TestTraceGolden -update-golden`.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	var tick int64
	tr := obs.NewTracerClock(&buf, func() int64 { tick += 1000; return tick })

	res, err := paramra.Verify(context.Background(), mustParse(t, cliSafe), paramra.Options{
		Parallelism: 1, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsafe {
		t.Fatal("fixture became unsafe; golden trace assumptions broken")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("emitted trace fails schema validation: %v", err)
	}

	golden := filepath.Join("testdata", "trace_golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from %s\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// TestTraceDeterministicSpanIDs: the span structure (IDs, parents, names)
// is identical at every worker count; only timestamps and timing-dependent
// attrs may differ.
func TestTraceDeterministicSpanIDs(t *testing.T) {
	shape := func(workers int) []string {
		var buf bytes.Buffer
		var tick int64
		tr := obs.NewTracerClock(&buf, func() int64 { tick++; return tick })
		if _, err := paramra.Verify(context.Background(), mustParse(t, cliProdCons), paramra.Options{
			Parallelism: workers, Tracer: tr,
		}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		spans, err := obs.ParseTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range spans {
			out = append(out, strings.Join([]string{
				itoa(int(s.ID)), itoa(int(s.Parent)), s.Name,
			}, "/"))
		}
		return out
	}
	base := shape(1)
	for _, j := range []int{2, 8} {
		got := shape(j)
		if strings.Join(got, "\n") != strings.Join(base, "\n") {
			t.Errorf("span structure at j=%d differs from j=1:\n%v\nvs\n%v", j, got, base)
		}
	}
}

// TestCLITraceOut runs raverify with -trace-out/-metrics-out and validates
// the artifacts: the JSONL passes schema validation, covers every pipeline
// phase, and its terminal fixpoint counters agree with the metrics
// snapshot; rabench report then merges both.
func TestCLITraceOut(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	path := writeTemp(t, "pc.ra", cliProdCons)
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	metrics := filepath.Join(dir, "metrics.json")

	// -prepass=false: this test pins the trace shape of the full fixpoint
	// pipeline, which the static prepass would otherwise short-circuit.
	out, code := runTool(t, "raverify", "-prepass=false", "-j", "2", "-trace-out", trace, "-metrics-out", metrics, path)
	if code != 1 || !strings.Contains(out, "UNSAFE") {
		t.Fatalf("raverify: code=%d out=%s", code, out)
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ParseTrace(f)
	f.Close()
	if err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	byName := map[string][]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, phase := range []string{
		"raverify", "parse", "verify", "well-formedness",
		"fixpoint", "init-saturate", "layered", "layer",
	} {
		if len(byName[phase]) == 0 {
			t.Errorf("trace missing phase span %q", phase)
		}
	}
	if root := byName["raverify"]; len(root) != 1 || root[0].Parent != 0 {
		t.Errorf("expected a single root raverify span, got %+v", root)
	}

	var snap map[string]any
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	states, ok := snap["paramra_engine_states"].(float64)
	if !ok || states < 1 {
		t.Fatalf("metrics snapshot missing paramra_engine_states: %v", snap)
	}
	if fp := byName["fixpoint"]; len(fp) == 1 {
		if ms, ok := fp[0].Attrs["macro_states"].(float64); !ok || ms != states {
			t.Errorf("fixpoint macro_states attr %v != paramra_engine_states %v", fp[0].Attrs["macro_states"], states)
		}
	}

	rep, code := runTool(t, "rabench", "report", trace, metrics)
	if code != 0 {
		t.Fatalf("rabench report: code=%d out=%s", code, rep)
	}
	var report struct {
		Spans  int              `json:"spans"`
		WallNs int64            `json:"wallNs"`
		Phases []map[string]any `json:"phases"`
	}
	jsonPart := rep[:strings.Index(rep, "\n}")+2]
	if err := json.Unmarshal([]byte(jsonPart), &report); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, rep)
	}
	if report.Spans != len(spans) || report.WallNs <= 0 || len(report.Phases) == 0 {
		t.Errorf("report %+v, want spans=%d wallNs>0 phases>0", report, len(spans))
	}
}

// TestCLIFlagUniformity: the five run tools spell -j/-timeout and the
// observability group identically (same names, same help text); ravet
// carries the observability group only.
func TestCLIFlagUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	obsHelp := []string{
		"-trace-out", "write a JSONL phase-span trace to this file",
		"-metrics-addr", "serve Prometheus /metrics and expvar /debug/vars on this address",
		"-metrics-out", "write a JSON metrics snapshot to this file on exit",
		"-pprof-addr", "serve net/http/pprof on this address",
		"-cpuprofile", "write a CPU profile to this file",
		"-memprofile", "write a heap profile to this file on exit",
	}
	runHelp := []string{
		"worker goroutines (0 = GOMAXPROCS); verdicts are identical for every value",
		"overall time limit (0 = none), e.g. 30s",
	}
	for _, tool := range []string{"raverify", "raexplore", "radatalog", "ratqbf", "rabench"} {
		out, _ := runTool(t, tool, "-h")
		for _, want := range append(append([]string{}, obsHelp...), runHelp...) {
			if !strings.Contains(out, want) {
				t.Errorf("%s -h missing %q", tool, want)
			}
		}
	}
	out, _ := runTool(t, "ravet", "-h")
	for _, want := range obsHelp {
		if !strings.Contains(out, want) {
			t.Errorf("ravet -h missing %q", want)
		}
	}
	if strings.Contains(out, runHelp[0]) {
		t.Errorf("ravet -h unexpectedly registers the run flag group:\n%s", out)
	}
}

// TestParallelBaselineSmoke re-runs the parallel experiment's entries with
// observability disabled and checks the deterministic macro-state counts
// against the checked-in BENCH_parallel.json baseline.
func TestParallelBaselineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline smoke skipped in -short mode")
	}
	data, err := os.ReadFile("BENCH_parallel.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		Rows []struct {
			Name        string `json:"name"`
			Workers     int    `json:"workers"`
			MacroStates int    `json:"macroStates"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, r := range baseline.Rows {
		want[r.Name] = r.MacroStates
	}
	if len(want) == 0 {
		t.Fatal("empty baseline")
	}

	rows, err := bench.ParallelExperiment(context.Background(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, r := range rows {
		states, known := want[r.Name]
		if !known {
			continue
		}
		matched++
		if r.MacroStates != states {
			t.Errorf("%s (j=%d): macro-states %d, baseline %d", r.Name, r.Workers, r.MacroStates, states)
		}
	}
	if matched == 0 {
		t.Errorf("no experiment entry matched the baseline names %v", want)
	}
}
