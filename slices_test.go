package paramra_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"paramra"
	"paramra/internal/bench"
	"paramra/internal/fuzzgen"
)

// The slice-equivalence tests run each engine of the prepass schedule to
// its end in slices of 1, 7 and 16 meter units, and require the answer of
// the engine run in one slice, on the corpus and on fuzzgen's default
// profile at seeds 1–200 (under smaller caps). Every engine keeps its
// frontier between its slices and pauses only between two expansions, so
// a run in slices is the run in one by construction; these tests check
// that construction.

var sliceSteps = []int64{1, 7, 16}

func sliceInputs(check func(name string, sys *paramra.System, opts paramra.Options)) {
	for _, e := range bench.Corpus() {
		check(e.Name, e.System(), paramra.Options{})
	}
	for seed := int64(1); seed <= 200; seed++ {
		check(fmt.Sprintf("default seed %d", seed), fuzzgen.Generate(seed, fuzzgen.DefaultProfile()),
			paramra.Options{MaxStates: 2000, MaxMacroStates: 3000, MaxSkeletons: 3000})
	}
}

// TestReplayInSlices: the prepass replay in slices ends with the outcome of
// the replay in one: verdict, reason, witness, env threads, state count.
func TestReplayInSlices(t *testing.T) {
	ctx := context.Background()
	sliceInputs(func(name string, sys *paramra.System, opts paramra.Options) {
		whole, _, ok, err := paramra.ReplayInSlicesForTest(ctx, sys, opts, 0)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		whole.Analysis = nil
		for _, step := range sliceSteps {
			out, slices, _, err := paramra.ReplayInSlicesForTest(ctx, sys, opts, step)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out.Analysis = nil
			// The root counts as the first state, so a slice of 1 pauses
			// at once.
			if out != whole || step == 1 && slices < 2 {
				t.Errorf("%s, slices of %d: %+v in %d slices, in one slice %+v", name, step, out, slices, whole)
			}
		}
	})
}

// TestFixpointInSlices: the fixpoint's search in slices ends with the
// Result of the search in one: verdict, witness, §4.3 bound, dependency
// graph and Stats.
func TestFixpointInSlices(t *testing.T) {
	checkBackendInSlices(t, paramra.FixpointInSlicesForTest, paramra.Options{})
}

// TestDatalogInSlices: the Datalog backend in slices, pausing only between
// two skeletons, ends with the Result of the backend in one: verdict and
// its five counters.
func TestDatalogInSlices(t *testing.T) {
	checkBackendInSlices(t, paramra.DatalogInSlicesForTest, paramra.Options{Datalog: true})
}

type backendInSlices func(context.Context, *paramra.System, paramra.Options, int64) (paramra.Result, int, bool, error)

func checkBackendInSlices(t *testing.T, run backendInSlices, extra paramra.Options) {
	ctx := context.Background()
	checked, sliced := 0, 0
	sliceInputs(func(name string, sys *paramra.System, opts paramra.Options) {
		opts.Datalog = extra.Datalog
		whole, _, ok, werr := run(ctx, sys, opts, 0)
		if !ok {
			return
		}
		checked++
		for _, step := range sliceSteps {
			got, slices, _, err := run(ctx, sys, opts, step)
			if (err != nil) != (werr != nil) || !sameAnswer(got, whole) {
				t.Errorf("%s, slices of %d (%d slices): %s (%v), in one slice %s (%v)",
					name, step, slices, describe(got), err, describe(whole), werr)
			}
			if slices > 1 {
				sliced++
			}
		}
	})
	// The corpus alone has 24 systems, each decidable by both backends.
	if checked < len(bench.Corpus()) || sliced < checked {
		t.Errorf("%d systems checked, %d runs in more than one slice", checked, sliced)
	}
	t.Logf("%d systems checked, %d runs in more than one slice", checked, sliced)
}

// sameAnswer reports whether two backend Results agree in everything but
// the time they took.
func sameAnswer(a, b paramra.Result) bool {
	a.Stats.Wall, b.Stats.Wall = 0, 0
	ga, gb := "", ""
	if a.Graph != nil {
		ga = a.Graph.String()
	}
	if b.Graph != nil {
		gb = b.Graph.String()
	}
	a.Graph, b.Graph = nil, nil
	return ga == gb && reflect.DeepEqual(a, b)
}

// describe renders a backend Result for a failure message.
func describe(r paramra.Result) string {
	r.Stats.Wall = 0
	return fmt.Sprintf("unsafe %v complete %v bound %d witness %q stats %+v",
		r.Unsafe, r.Complete, r.EnvThreadBound, r.Witness, r.Stats)
}
