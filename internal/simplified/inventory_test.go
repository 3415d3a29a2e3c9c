package simplified

import (
	"context"
	"testing"

	"paramra/internal/lang"
)

// TestInventoryMatchesGoalQueries: the inventory must agree with a
// per-(variable, value) Goal query across the whole value space — a strong
// cross-check between the two MG code paths.
func TestInventoryMatchesGoalQueries(t *testing.T) {
	for name, src := range propertyCorpus() {
		sys := lang.MustParseSystem(src)
		v, err := New(sys, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inv, _, complete := v.InventoryContext(context.Background())
		if !complete {
			t.Fatalf("%s: inventory incomplete", name)
		}
		for vi := range sys.Vars {
			for d := 0; d < sys.Dom; d++ {
				goal := &Goal{Var: lang.VarID(vi), Val: lang.Val(d)}
				gv, err := New(sys, Options{Goal: goal})
				if err != nil {
					t.Fatal(err)
				}
				want := verify1(gv).Unsafe
				if got := inv[lang.VarID(vi)][lang.Val(d)]; got != want {
					t.Errorf("%s: inventory(%s,%d)=%v but goal query says %v",
						name, sys.Vars[vi], d, got, want)
				}
			}
		}
	}
}

func TestInventoryContents(t *testing.T) {
	sys := lang.MustParseSystem(`
system inv { vars x y; domain 4; env w; dis d }
thread w { regs r; r = load x; assume r == 1; store y 2 }
thread d { store x 1 }
`)
	v, err := New(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inv, stats, complete := v.InventoryContext(context.Background())
	if !complete {
		t.Fatal("incomplete")
	}
	x, _ := sys.VarByName("x")
	y, _ := sys.VarByName("y")
	for _, tc := range []struct {
		v    lang.VarID
		d    lang.Val
		want bool
	}{
		{x, 0, true},  // init
		{x, 1, true},  // dis store
		{x, 2, false}, // never written
		{y, 0, true},  // init
		{y, 2, true},  // env store after seeing x=1
		{y, 1, false},
		{y, 3, false},
	} {
		if got := inv[tc.v][tc.d]; got != tc.want {
			t.Errorf("inventory(%s,%d) = %v, want %v", sys.VarName(tc.v), tc.d, got, tc.want)
		}
	}
	if stats.MacroStates < 2 {
		t.Errorf("stats implausible: %+v", stats)
	}
}

// TestInventoryIgnoresAsserts: an assert must not abort the inventory.
func TestInventoryIgnoresAsserts(t *testing.T) {
	sys := lang.MustParseSystem(`
system a { vars x; domain 3; env w }
thread w {
  regs r
  choice { assert false } or { store x 2 }
}
`)
	v, err := New(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inv, _, complete := v.InventoryContext(context.Background())
	if !complete {
		t.Fatal("incomplete")
	}
	if !inv[0][2] {
		t.Error("store branch not explored past the assert branch")
	}
}
