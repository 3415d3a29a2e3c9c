package ra

import (
	"context"
	"testing"

	"paramra/internal/lang"
)

// TestSymmetryVerdictEquivalence: symmetry reduction must never change the
// verdict, only (potentially) the state count.
func TestSymmetryVerdictEquivalence(t *testing.T) {
	cases := []struct {
		src  string
		nEnv int
	}{
		{`
system s { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
`, 3},
		{`
system s { vars x y; domain 2; env p; dis c }
thread p { store x 1; store y 1 }
thread c { regs a b; a = load y; assume a == 1; b = load x; assume b == 0; assert false }
`, 2},
		{`
system s { vars x; domain 4; env inc; dis w }
thread inc { regs r; r = load x; store x (r + 1) }
thread w { regs s; s = load x; assume s == 2; assert false }
`, 2},
	}
	for i, tc := range cases {
		sys := lang.MustParseSystem(tc.src)
		inst, err := NewInstance(sys, tc.nEnv)
		if err != nil {
			t.Fatal(err)
		}
		plain := inst.ExploreContext(context.Background(), Limits{MaxStates: 2_000_000})
		sym := inst.ExploreContext(context.Background(), Limits{MaxStates: 2_000_000, Symmetry: true})
		if plain.Unsafe != sym.Unsafe {
			t.Fatalf("case %d: verdict changed under symmetry: %v vs %v", i, plain.Unsafe, sym.Unsafe)
		}
		if !plain.Unsafe {
			if !plain.Complete || !sym.Complete {
				t.Fatalf("case %d: incomplete", i)
			}
			if sym.States > plain.States {
				t.Errorf("case %d: symmetry increased states %d > %d", i, sym.States, plain.States)
			}
		}
	}
}

// TestSymmetryShrinksStateSpace: with several env replicas the reduction
// must collapse permuted states (strict shrink on a replica-heavy system).
func TestSymmetryShrinksStateSpace(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 3; env w }
thread w { regs r; r = load x; store x 1 }
`)
	inst, err := NewInstance(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	plain := inst.ExploreContext(context.Background(), Limits{})
	sym := inst.ExploreContext(context.Background(), Limits{Symmetry: true})
	if !plain.Complete || !sym.Complete {
		t.Fatal("incomplete")
	}
	if sym.States >= plain.States {
		t.Errorf("symmetry did not shrink: %d vs %d", sym.States, plain.States)
	}
	t.Logf("states: plain=%d symmetric=%d", plain.States, sym.States)
}

// TestSymKeyPermutationInvariance: permuting env replica sections leaves
// SymKey unchanged, and dis sections stay positional.
func TestSymKeyPermutationInvariance(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 4; env w; dis d }
thread w { regs r; r = load x }
thread d { store x 1 }
`)
	inst, err := NewInstance(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.InitState()
	s.Threads[0].Regs[0] = 1
	s.Threads[1].Regs[0] = 2
	perm := s.Clone()
	perm.Threads[0], perm.Threads[1] = perm.Threads[1], perm.Threads[0]
	if s.Key() == perm.Key() {
		t.Fatal("plain keys should differ for permuted replicas")
	}
	if s.SymKey(2) != perm.SymKey(2) {
		t.Fatal("SymKey should be permutation invariant on env replicas")
	}
	// Dis thread differences must still distinguish states.
	d := s.Clone()
	d.Threads[2].PC = 1
	if s.SymKey(2) == d.SymKey(2) {
		t.Fatal("SymKey ignored a dis-thread difference")
	}
}
