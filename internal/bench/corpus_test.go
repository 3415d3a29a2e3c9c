package bench

import (
	"context"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/ra"
	"paramra/internal/simplified"
)

func TestCorpusParsesAndClassifies(t *testing.T) {
	for _, e := range Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			sys, err := lang.ParseSystem(e.Src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			c := lang.Classify(sys)
			if !c.Decidable() {
				t.Errorf("corpus entry outside the decidable class: %s", c)
			}
			if e.Class == "" {
				t.Error("missing class annotation")
			}
		})
	}
}

// TestCorpusVerdicts checks every entry's expected verdict with the
// parameterized verifier.
func TestCorpusVerdicts(t *testing.T) {
	for _, e := range Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			v, err := simplified.New(e.System(), simplified.Options{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res := v.VerifyContext(context.Background())
			if !res.Unsafe && !res.Complete {
				t.Fatal("verification incomplete")
			}
			got := Safe
			if res.Unsafe {
				got = Unsafe
			}
			if got != e.Want {
				t.Errorf("verdict = %v, want %v", got, e.Want)
			}
		})
	}
}

// TestCorpusMinEnv cross-checks the MinEnv annotations against concrete RA
// exploration: unsafe at MinEnv threads, safe below.
func TestCorpusMinEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("concrete sweeps skipped in -short mode")
	}
	for _, e := range Corpus() {
		e := e
		if e.Want != Unsafe {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			sys := e.System()
			for n := 0; n <= e.MinEnv; n++ {
				inst, err := ra.NewInstance(sys, n)
				if err != nil {
					t.Fatalf("instance: %v", err)
				}
				res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 2_000_000})
				if !res.Unsafe && !res.Complete {
					t.Skipf("n=%d exploration incomplete", n)
				}
				if n < e.MinEnv && res.Unsafe {
					t.Errorf("unsafe already at n=%d (MinEnv=%d)", n, e.MinEnv)
				}
				if n == e.MinEnv && !res.Unsafe {
					t.Errorf("still safe at annotated MinEnv=%d", n)
				}
			}
		})
	}
}

// TestCorpusSafeEntriesConcrete spot-checks safe entries against concrete
// instances (the abstraction must not be hiding concrete violations).
func TestCorpusSafeEntriesConcrete(t *testing.T) {
	if testing.Short() {
		t.Skip("concrete sweeps skipped in -short mode")
	}
	for _, e := range Corpus() {
		e := e
		if e.Want != Safe {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			sys := e.System()
			for n := 0; n <= 2; n++ {
				inst, err := ra.NewInstance(sys, n)
				if err != nil {
					t.Fatalf("instance: %v", err)
				}
				res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 2_000_000})
				if res.Unsafe {
					t.Fatalf("concrete violation at n=%d for an entry marked safe:\n%s",
						n, ra.FormatWitness(res.Witness))
				}
				if !res.Complete {
					t.Logf("n=%d not exhaustive; partial evidence only", n)
				}
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("prodcons-fig1"); !ok {
		t.Error("prodcons-fig1 missing")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("nonexistent found")
	}
}
