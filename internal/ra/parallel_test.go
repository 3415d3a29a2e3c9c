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
	got := inst.ExploreContext(context.Background(), ra.Limits{})
	if got.Unsafe != want.Unsafe {
		t.Fatalf("verdict %v vs %v", got.Unsafe, want.Unsafe)
	}
	if !got.Complete {
		t.Fatal("incomplete")
	}
	if got.States != want.States {
		t.Errorf("states %d vs reference %d", got.States, want.States)
	}
	if got.Transitions != want.Transitions {
		t.Errorf("transitions %d vs reference %d", got.Transitions, want.Transitions)
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
	res := inst.ExploreContext(context.Background(), ra.Limits{})
	if !res.Unsafe {
		t.Fatal("violation missed")
	}
	if err := replayWitness(inst, res.Witness); err != nil {
		t.Fatalf("malformed witness %v: %v", res.Witness, err)
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
	res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 200})
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
		t.Errorf("default exploration wrong: %+v", res)
	}
}
