package paramra_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"paramra"
	"paramra/internal/bench"
	"paramra/internal/obs"
	"paramra/internal/serve"
)

// maxServedReplayStates bounds the concrete replay states one pass over the
// corpus explores at raserved's defaults, summed over the entries. Running
// the replay to its full cap before the fixpoint explores 21,095; replay
// rounds of 64 states and more, growing ×4 and restarted each round,
// explored about 1,350; resumed slices from 16 units, doubling, about 850.
const maxServedReplayStates = 1_000

// TestServedScheduleContract pins what the prepass schedule (the replay and
// the fixpoint in metered slices that resume where they paused) guarantees
// on the corpus at raserved's defaults:
//
//   - the verdict is the prepass-off verdict;
//   - when the fixpoint decides, its statistics are the prepass-off run's,
//     since its slices resume one search;
//   - a backend's answer gives the same PrepassReason whatever the
//     replay's cap (the served one, or MaxStates 1000);
//   - with MaxMacroStates 1 the fixpoint ends capped and only the replay
//     can run on, and every entry the standalone prepass decides gets
//     exactly its outcome;
//   - every slice is one engine-named child span of verify (see
//     checkSlices), and the replay explores far fewer states than one full
//     replay.
func TestServedScheduleContract(t *testing.T) {
	ctx := context.Background()
	served, err := serve.Config{}.Defaulted().Options(serve.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	replayOnly := served
	replayOnly.MaxMacroStates = 1
	off := served
	off.Prepass = false
	smallReplay := served
	smallReplay.MaxStates = 1000

	replayStates := int64(0)
	for _, e := range bench.Corpus() {
		sys := e.System()
		res := tracedVerify(t, e.Name, sys, served, "fixpoint")
		for _, r := range res.Schedule {
			if r.Engine == "prepass" {
				replayStates += r.Units
			}
		}

		base, err := paramra.Verify(ctx, sys, off)
		if err != nil {
			t.Fatalf("%s prepass off: %v", e.Name, err)
		}
		if res.Unsafe != base.Unsafe || res.Complete != base.Complete {
			t.Errorf("%s: verdict (unsafe %v, complete %v) by %s, prepass off (%v, %v)",
				e.Name, res.Unsafe, res.Complete, res.DecidedBy, base.Unsafe, base.Complete)
		}
		if res.DecidedBy == "fixpoint" {
			if fixpointStats(res.Stats) != fixpointStats(base.Stats) {
				t.Errorf("%s: fixpoint stats %v, prepass off %v",
					e.Name, fixpointStats(res.Stats), fixpointStats(base.Stats))
			}
			checkSameReason(t, e.Name, res, sys, smallReplay)
		}

		pre, err := paramra.Prepass(ctx, sys, served)
		if err != nil {
			t.Fatalf("%s standalone prepass: %v", e.Name, err)
		}
		if pre.Verdict == paramra.PrepassInconclusive {
			continue
		}
		got, err := paramra.Verify(ctx, sys, replayOnly)
		if err != nil {
			t.Fatalf("%s MaxMacroStates 1: %v", e.Name, err)
		}
		checkPrepassOutcome(t, e.Name+", MaxMacroStates 1", got, pre)
	}
	if replayStates >= maxServedReplayStates {
		t.Errorf("one corpus pass replayed %d states, want fewer than %d", replayStates, maxServedReplayStates)
	}
	t.Logf("one corpus pass replayed %d states", replayStates)
}

// tracedVerify verifies sys under opts with a trace, checks the trace's
// slices against the Result's Schedule (checkSlices), and returns the
// Result.
func tracedVerify(t *testing.T, name string, sys *paramra.System, opts paramra.Options, backend string) paramra.Result {
	t.Helper()
	capture := obs.NewCapture("schedule")
	opts.Tracer = capture.Tracer
	res, err := paramra.Verify(context.Background(), sys, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tree, err := capture.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != 1 || tree[0].Name != "verify" {
		t.Fatalf("%s: trace roots %v, want one verify span", name, tree)
	}
	checkSlices(t, name, tree[0], res, backend)
	return res
}

// engineSpans are the spans the engines record inside their slices.
var engineSpans = map[string]bool{
	"init-saturate": true, "layered": true, "layer": true,
	"datalog-eval": true, "shared-model": true, "skeleton-enumeration": true,
}

// checkSlices pins the slices of one schedule in its trace:
//
//   - every slice is one child span of verify named after its engine
//     ("prepass" or the backend), and the engines' own spans nest inside
//     the slices, never directly under verify, so no span straddles two
//     slices;
//   - an engine's slices are numbered 1, 2, … and its units never fall;
//   - a slice with a target starts below it and ends at or past it unless
//     it is the engine's last, and a slice without one (the engine runs
//     alone) is its engine's last;
//   - the Result's Schedule lists each engine's slices and final units.
func checkSlices(t *testing.T, name string, verify *obs.TreeNode, res paramra.Result, backend string) {
	t.Helper()
	type run struct {
		slices int
		units  float64
		// target is the last slice's target, 0 for none.
		target float64
		alone  bool
	}
	runs := map[string]*run{}
	var order []string
	for _, c := range verify.Children {
		if engineSpans[c.Name] {
			t.Errorf("%s: engine span %q directly under verify, outside every slice", name, c.Name)
		}
		if c.Name != "prepass" && c.Name != backend {
			continue
		}
		slice, _ := c.Attrs["slice"].(float64)
		units, okUnits := c.Attrs["units"].(float64)
		if slice == 0 && c.Name == "prepass" && len(runs) == 0 {
			// The once-per-system prepass, with no replay to slice.
			continue
		}
		r := runs[c.Name]
		if r == nil {
			r = &run{}
			runs[c.Name] = r
			order = append(order, c.Name)
		}
		if r.alone {
			t.Errorf("%s: %s slice %v after its slice without a target", name, c.Name, slice)
		}
		if r.units < r.target {
			t.Errorf("%s: %s slice %v follows one that paused at %v units, below its target %v",
				name, c.Name, slice, r.units, r.target)
		}
		r.slices++
		if int(slice) != r.slices || !okUnits || units < r.units {
			t.Errorf("%s: %s slice %v (attrs %v) after %d slices and %v units", name, c.Name, slice, c.Attrs, r.slices-1, r.units)
		}
		if target, ok := c.Attrs["target"].(float64); ok {
			if r.units >= target {
				t.Errorf("%s: %s slice %v starts at %v units, past its target %v", name, c.Name, slice, r.units, target)
			}
			r.target = target
		} else {
			r.alone = true
		}
		r.units = units
		obs.WalkTree(c.Children, func(n *obs.TreeNode) {
			if n.Name == "prepass" || n.Name == "fixpoint" || n.Name == "datalog" {
				t.Errorf("%s: slice span %q nested in a %s slice", name, n.Name, c.Name)
			}
		})
	}
	var want []paramra.EngineRun
	for _, engine := range order {
		r := runs[engine]
		decided := engine == res.DecidedBy && res.Complete
		want = append(want, paramra.EngineRun{Engine: engine, Slices: r.slices, Units: int64(r.units), Decided: decided})
	}
	if !reflect.DeepEqual(res.Schedule, want) {
		t.Errorf("%s: Schedule %+v, the trace's slices %+v", name, res.Schedule, want)
	}
}

// checkSameReason requires the backend's answer res on sys to give the same
// PrepassReason when the replay has the smaller cap of opts.
func checkSameReason(t *testing.T, name string, res paramra.Result, sys *paramra.System, opts paramra.Options) {
	t.Helper()
	got, err := paramra.Verify(context.Background(), sys, opts)
	if err != nil {
		t.Fatalf("%s MaxStates %d: %v", name, opts.MaxStates, err)
	}
	if got.DecidedBy != res.DecidedBy || got.PrepassReason != res.PrepassReason {
		t.Errorf("%s: decided by %s with reason %q; with MaxStates %d by %s with reason %q",
			name, res.DecidedBy, res.PrepassReason, opts.MaxStates, got.DecidedBy, got.PrepassReason)
	}
}

// checkPrepassOutcome requires got to be exactly the standalone prepass's
// decisive outcome pre.
func checkPrepassOutcome(t *testing.T, name string, got paramra.Result, pre paramra.PrepassOutcome) {
	t.Helper()
	want := paramra.Result{Unsafe: pre.Verdict == paramra.PrepassUnsafe, Complete: true,
		DecidedBy: "prepass", EnvThreadBound: -1}
	if want.Unsafe {
		want.EnvThreadBound = int64(pre.EnvThreads)
		want.Witness = strings.Split(strings.TrimRight(pre.Witness, "\n"), "\n")
	}
	if got.Unsafe != want.Unsafe || got.Complete != want.Complete || got.DecidedBy != want.DecidedBy ||
		got.EnvThreadBound != want.EnvThreadBound || !reflect.DeepEqual(got.Witness, want.Witness) ||
		got.PrepassReason != pre.Reason {
		t.Errorf("%s: unsafe %v complete %v by %q bound %d witness %q reason %q;\n"+
			"standalone prepass: unsafe %v by prepass bound %d witness %q reason %q",
			name, got.Unsafe, got.Complete, got.DecidedBy, got.EnvThreadBound, got.Witness, got.PrepassReason,
			want.Unsafe, want.EnvThreadBound, want.Witness, pre.Reason)
	}
}

// TestDatalogScheduleContract pins the same schedule with the Datalog
// backend in the fixpoint's place (radatalog's default: Datalog with
// Prepass), on the corpus:
//
//   - the verdict is the Datalog backend's with the prepass off;
//   - when the Datalog backend decides, its five counters and its units
//     are that run's: its slices resume one walk, and Stats are not a sum
//     over slices;
//   - a backend's answer gives the same PrepassReason with MaxStates 1000;
//   - with MaxSkeletons 1 the Datalog backend ends capped and only the
//     replay can run on, and every entry the standalone prepass decides
//     gets exactly its outcome;
//   - every slice is one engine-named child span of verify (checkSlices),
//     and the skeleton-enumeration span of a Datalog slice counts the
//     skeletons walked so far, never fewer than the slice before.
func TestDatalogScheduleContract(t *testing.T) {
	ctx := context.Background()
	opts := paramra.Options{Datalog: true, Prepass: true}
	skeletonOnly := opts
	skeletonOnly.MaxSkeletons = 1
	off := opts
	off.Prepass = false
	smallReplay := opts
	smallReplay.MaxStates = 1000

	for _, e := range bench.Corpus() {
		sys := e.System()
		res := tracedVerify(t, e.Name, sys, opts, "datalog")

		base, err := paramra.Verify(ctx, sys, off)
		if err != nil {
			t.Fatalf("%s prepass off: %v", e.Name, err)
		}
		if res.Unsafe != base.Unsafe || res.Complete != base.Complete {
			t.Errorf("%s: verdict (unsafe %v, complete %v) by %s, prepass off (%v, %v)",
				e.Name, res.Unsafe, res.Complete, res.DecidedBy, base.Unsafe, base.Complete)
		}
		if res.DecidedBy == "datalog" {
			if datalogStats(res.Stats) != datalogStats(base.Stats) {
				t.Errorf("%s: Datalog stats %v, prepass off %v",
					e.Name, datalogStats(res.Stats), datalogStats(base.Stats))
			}
			if got, want := last(res.Schedule).Units, last(base.Schedule).Units; got != want {
				t.Errorf("%s: the Datalog slices spent %d units, the backend alone %d", e.Name, got, want)
			}
			checkSameReason(t, e.Name, res, sys, smallReplay)
		}

		pre, err := paramra.Prepass(ctx, sys, opts)
		if err != nil {
			t.Fatalf("%s standalone prepass: %v", e.Name, err)
		}
		if pre.Verdict == paramra.PrepassInconclusive {
			continue
		}
		got, err := paramra.Verify(ctx, sys, skeletonOnly)
		if err != nil {
			t.Fatalf("%s MaxSkeletons 1: %v", e.Name, err)
		}
		checkPrepassOutcome(t, e.Name+", MaxSkeletons 1", got, pre)
	}
}

// last is a schedule's last engine.
func last(s []paramra.EngineRun) paramra.EngineRun {
	if len(s) == 0 {
		return paramra.EngineRun{}
	}
	return s[len(s)-1]
}

// TestDatalogSlicesWalkOnce: on corr2-coherence, where the Datalog backend
// decides SAFE after several slices beside the replay, the slices walk each
// of its 69 skeletons exactly once. A schedule that restarted its Datalog
// rounds walked the first rounds' skeletons again.
func TestDatalogSlicesWalkOnce(t *testing.T) {
	e, _ := bench.ByName("corr2-coherence")
	capture := obs.NewCapture("walk")
	res, err := paramra.Verify(context.Background(), e.System(),
		paramra.Options{Datalog: true, Prepass: true, Tracer: capture.Tracer})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := capture.Tree()
	if err != nil {
		t.Fatal(err)
	}
	var walked []float64
	obs.WalkTree(tree, func(n *obs.TreeNode) {
		if n.Name == "skeleton-enumeration" {
			v, _ := n.Attrs["skeletons"].(float64)
			walked = append(walked, v)
		}
	})
	if res.DecidedBy != "datalog" || res.Unsafe || res.Stats.Skeletons != 69 || len(walked) < 2 {
		t.Fatalf("decided by %s (unsafe %v) after %d skeletons in %d Datalog slices, want SAFE by datalog after 69 in several",
			res.DecidedBy, res.Unsafe, res.Stats.Skeletons, len(walked))
	}
	for i := 1; i < len(walked); i++ {
		if walked[i] < walked[i-1] {
			t.Errorf("slice %d: %v skeletons walked so far, the slice before %v", i+1, walked[i], walked[i-1])
		}
	}
	if walked[len(walked)-1] != 69 {
		t.Errorf("the last slice had walked %v skeletons, want 69", walked[len(walked)-1])
	}
}
