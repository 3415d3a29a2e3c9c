package ra_test

import (
	"context"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/ra"
)

func TestParallelMatchesSequentialSafe(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x y a; domain 3; dis t1; dis t2 }
thread t1 { regs r; store x 1; r = load y; store a (r + 1) }
thread t2 { regs q; store y 1; q = load x; store a q }
`)
	inst, err := ra.NewInstance(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := refExplore(inst, ra.Limits{})
	for _, workers := range []int{1, 2, 4, 8} {
		got := inst.ExploreContext(context.Background(), ra.Limits{Workers: workers})
		if got.Unsafe != want.Unsafe {
			t.Fatalf("workers=%d: verdict %v vs %v", workers, got.Unsafe, want.Unsafe)
		}
		if !got.Complete {
			t.Fatalf("workers=%d: incomplete", workers)
		}
		if got.States != want.States {
			t.Errorf("workers=%d: states %d vs reference %d", workers, got.States, want.States)
		}
		if got.Transitions != want.Transitions {
			t.Errorf("workers=%d: transitions %d vs reference %d", workers, got.Transitions, want.Transitions)
		}
	}
}

func TestParallelFindsViolation(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
`)
	inst, err := ra.NewInstance(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		res := inst.ExploreContext(context.Background(), ra.Limits{Workers: workers})
		if !res.Unsafe {
			t.Fatalf("workers=%d: violation missed", workers)
		}
		if err := replayWitness(inst, res.Witness); err != nil {
			t.Fatalf("workers=%d: malformed witness %v: %v", workers, res.Witness, err)
		}
	}
}

func TestParallelRespectsLimits(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 8; env w }
thread w { regs r; loop { r = load x; store x (r + 1) } }
`)
	inst, err := ra.NewInstance(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 200, Workers: 4})
	if res.Complete {
		t.Error("unbounded instance reported complete under a state cap")
	}
	if res.States > 200 {
		t.Errorf("state cap exceeded: %d", res.States)
	}
}

func TestParallelDefaultWorkers(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 2; dis t }
thread t { store x 1 }
`)
	inst, err := ra.NewInstance(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := inst.ExploreContext(context.Background(), ra.Limits{})
	if !res.Complete || res.States != 2 {
		t.Errorf("default-worker exploration wrong: %+v", res)
	}
}
