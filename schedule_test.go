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
// corpus explores at raserved's defaults, summed over every prepass span.
// Running the replay to its full cap before the fixpoint explores 21,095.
const maxServedReplayStates = 5_000

// TestServedScheduleContract pins what the prepass schedule (alternating
// replay and fixpoint rounds under growing state budgets) guarantees on the
// corpus at raserved's defaults, at Parallelism 1:
//
//   - the verdict is the prepass-off verdict;
//   - when the fixpoint decides, its statistics are the prepass-off run's,
//     since a budgeted round counts only when its budget did not bind;
//   - with MaxMacroStates 1 only the replay can run on, and every entry the
//     standalone prepass decides gets exactly its outcome — the replay gets
//     its full cap before the answer is UNKNOWN;
//   - the replay rounds explore far fewer states than one full replay.
func TestServedScheduleContract(t *testing.T) {
	ctx := context.Background()
	served, err := serve.Config{}.Defaulted().Options(serve.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	served.Parallelism = 1
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
		want := paramra.Result{Unsafe: pre.Verdict == paramra.PrepassUnsafe, Complete: true,
			DecidedBy: "prepass", EnvThreadBound: -1}
		if want.Unsafe {
			want.EnvThreadBound = int64(pre.EnvThreads)
			want.Witness = strings.Split(strings.TrimRight(pre.Witness, "\n"), "\n")
		}
		if got.Unsafe != want.Unsafe || got.Complete != want.Complete || got.DecidedBy != want.DecidedBy ||
			got.EnvThreadBound != want.EnvThreadBound || !reflect.DeepEqual(got.Witness, want.Witness) {
			t.Errorf("%s, MaxMacroStates 1: unsafe %v complete %v by %q bound %d witness %q;\n"+
				"standalone prepass: unsafe %v by prepass bound %d witness %q",
				e.Name, got.Unsafe, got.Complete, got.DecidedBy, got.EnvThreadBound, got.Witness,
				want.Unsafe, want.EnvThreadBound, want.Witness)
		}
	}
	if replayStates >= maxServedReplayStates {
		t.Errorf("one corpus pass replayed %d states, want fewer than %d", replayStates, maxServedReplayStates)
	}
	t.Logf("one corpus pass replayed %d states", replayStates)
}
