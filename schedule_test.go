package paramra_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"paramra"
	"paramra/internal/absint"
	"paramra/internal/bench"
	"paramra/internal/obs"
	"paramra/internal/serve"
)

// maxServedReplayStates bounds the concrete replay states one pass over the
// corpus explores at raserved's defaults, summed over every prepass span.
// Running the replay to its full cap before the fixpoint explores 21,095,
// and charging each budgeted round's budget per instance instead of summed
// over its instances explores 2,286.
const maxServedReplayStates = 2_000

// TestServedScheduleContract pins what the prepass schedule (alternating
// replay and fixpoint rounds under growing state budgets) guarantees on the
// corpus at raserved's defaults:
//
//   - the verdict is the prepass-off verdict;
//   - when the fixpoint decides, its statistics are the prepass-off run's,
//     since a budgeted round counts only when its budget did not bind;
//   - with MaxMacroStates 1 only the replay can run on, and every entry the
//     standalone prepass decides gets exactly its outcome — the replay gets
//     its full cap before the answer is UNKNOWN;
//   - a budgeted replay round explores at most its budget, summed over its
//     instances, and the replay rounds explore far fewer states than one
//     full replay.
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

	replayStates := 0
	for _, e := range bench.Corpus() {
		sys := e.System()

		capture := obs.NewCapture("schedule")
		traced := served
		traced.Tracer = capture.Tracer
		res, err := paramra.Verify(ctx, sys, traced)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		tree, err := capture.Tree()
		if err != nil {
			t.Fatal(err)
		}
		obs.WalkTree(tree, func(n *obs.TreeNode) {
			if n.Name == "prepass" {
				v, _ := n.Attrs["replay_states"].(float64)
				replayStates += int(v)
				if budget, ok := n.Attrs["budget"].(float64); ok && budget < absint.DefaultMaxReplayStates && v > budget {
					t.Errorf("%s: replay round %v explored %v states on a budget of %v",
						e.Name, n.Attrs["round"], v, budget)
				}
			}
		})

		base, err := paramra.Verify(ctx, sys, off)
		if err != nil {
			t.Fatalf("%s prepass off: %v", e.Name, err)
		}
		if res.Unsafe != base.Unsafe || res.Complete != base.Complete {
			t.Errorf("%s: verdict (unsafe %v, complete %v) by %s, prepass off (%v, %v)",
				e.Name, res.Unsafe, res.Complete, res.DecidedBy, base.Unsafe, base.Complete)
		}
		if res.DecidedBy == "fixpoint" && fixpointStats(res.Stats) != fixpointStats(base.Stats) {
			t.Errorf("%s: fixpoint stats %v, prepass off %v",
				e.Name, fixpointStats(res.Stats), fixpointStats(base.Stats))
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
//   - when the Datalog backend decides, its five counters are that run's:
//     a budgeted round counts only when its skeleton budget did not bind,
//     and Stats are the deciding round's, not a sum over rounds;
//   - with MaxSkeletons 1 only the replay can run on, and every entry the
//     standalone prepass decides gets exactly its outcome;
//   - every Datalog round is a "datalog" span with its round and budget,
//     and one that runs below the skeleton cap walks at most its budget.
func TestDatalogScheduleContract(t *testing.T) {
	ctx := context.Background()
	opts := paramra.Options{Datalog: true, Prepass: true}
	skeletonOnly := opts
	skeletonOnly.MaxSkeletons = 1
	off := opts
	off.Prepass = false

	for _, e := range bench.Corpus() {
		sys := e.System()
		capture := obs.NewCapture("schedule")
		traced := opts
		traced.Tracer = capture.Tracer
		res, err := paramra.Verify(ctx, sys, traced)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		tree, err := capture.Tree()
		if err != nil {
			t.Fatal(err)
		}
		obs.WalkTree(tree, func(n *obs.TreeNode) {
			if n.Name != "datalog" {
				return
			}
			round, okRound := n.Attrs["round"].(float64)
			budget, okBudget := n.Attrs["budget"].(float64)
			if !okRound || !okBudget {
				t.Errorf("%s: datalog span without round and budget: %v", e.Name, n.Attrs)
				return
			}
			obs.WalkTree(n.Children, func(c *obs.TreeNode) {
				if walked, ok := c.Attrs["skeletons"].(float64); ok && c.Name == "skeleton-enumeration" && walked > budget {
					t.Errorf("%s: Datalog round %v walked %v skeletons on a budget of %v", e.Name, round, walked, budget)
				}
			})
		})

		base, err := paramra.Verify(ctx, sys, off)
		if err != nil {
			t.Fatalf("%s prepass off: %v", e.Name, err)
		}
		if res.Unsafe != base.Unsafe || res.Complete != base.Complete {
			t.Errorf("%s: verdict (unsafe %v, complete %v) by %s, prepass off (%v, %v)",
				e.Name, res.Unsafe, res.Complete, res.DecidedBy, base.Unsafe, base.Complete)
		}
		if res.DecidedBy == "datalog" && datalogStats(res.Stats) != datalogStats(base.Stats) {
			t.Errorf("%s: Datalog stats %v, prepass off %v",
				e.Name, datalogStats(res.Stats), datalogStats(base.Stats))
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
