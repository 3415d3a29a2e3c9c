package analysis

import (
	"reflect"
	"strings"
	"testing"

	"paramra/internal/lang"
)

// TestSliceRemovals exercises each rewrite on a program combining every
// removable construct.
func TestSliceRemovals(t *testing.T) {
	sys := mustSystem(t, `system s { vars x wonly; domain 3; env t; dis c }
thread t {
  regs a b dead
  dead = 2
  a = load x
  store wonly a
  if 0 == 1 {
    assert false
  }
  while b == 1 { }
  store x 1
}
thread c {
  regs v
  v = load x
  assume v == 1
}`)
	sliced, stats := Slice(sys, SliceOptions{})
	if err := sliced.Validate(); err != nil {
		t.Fatalf("sliced system invalid: %v", err)
	}
	if !stats.Changed() {
		t.Fatalf("expected a reduction, got %v", stats)
	}
	printed := lang.Print(sliced)
	for _, gone := range []string{"dead", "wonly", "assert", "0 == 1", "while"} {
		if strings.Contains(printed, gone) {
			t.Errorf("sliced system still contains %q:\n%s", gone, printed)
		}
	}
	// The load stays (acquire semantics) and so does the final store.
	for _, kept := range []string{"load x", "store x 1"} {
		if !strings.Contains(printed, kept) {
			t.Errorf("sliced system lost %q:\n%s", kept, printed)
		}
	}
	// b is only read by the while guard, which became `assume !(b == 1)`
	// with b never assigned: the guard survives, so b must too.
	if stats.VarsBefore != 2 || stats.VarsAfter != 1 {
		t.Errorf("vars %d→%d, want 2→1", stats.VarsBefore, stats.VarsAfter)
	}
}

// TestSliceIdempotent: slicing a sliced system changes nothing.
func TestSliceIdempotent(t *testing.T) {
	srcs := []string{
		`system s { vars x wonly; domain 3; env t }
thread t { regs a unusedv; a = load x; store wonly a; store x (a + 1) }`,
		`system s { vars x; domain 2; env t; dis d }
thread t { regs a; a = 1; assume a == 0; store x 1 }
thread d { regs v; v = load x; assume v == 1; assert false }`,
	}
	for _, src := range srcs {
		sys := mustSystem(t, src)
		once, _ := Slice(sys, SliceOptions{})
		twice, stats := Slice(once, SliceOptions{})
		if stats.Changed() {
			t.Errorf("second slice still shrank the system: %v\n%s", stats, lang.Print(once))
		}
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("slice not idempotent:\nonce:\n%s\ntwice:\n%s", lang.Print(once), lang.Print(twice))
		}
	}
}

// TestSliceKeepVars: a protected variable survives even when write-only.
func TestSliceKeepVars(t *testing.T) {
	sys := mustSystem(t, `system s { vars x goalv; domain 2; env t }
thread t { regs a; a = load x; store goalv a; store x 1 }`)
	sliced, _ := Slice(sys, SliceOptions{KeepVars: []string{"goalv"}})
	if _, ok := sliced.VarByName("goalv"); !ok {
		t.Fatalf("protected variable removed:\n%s", lang.Print(sliced))
	}
	if !strings.Contains(lang.Print(sliced), "store goalv") {
		t.Errorf("store to the protected variable removed:\n%s", lang.Print(sliced))
	}
	// Without protection both the store and the variable go.
	unprotected, _ := Slice(sys, SliceOptions{})
	if _, ok := unprotected.VarByName("goalv"); ok {
		t.Errorf("write-only variable survived an unprotected slice:\n%s", lang.Print(unprotected))
	}
}

// TestSliceKeepsDeadLoad: a load whose destination is dead must survive (it
// has acquire semantics under RA).
func TestSliceKeepsDeadLoad(t *testing.T) {
	sys := mustSystem(t, `system s { vars x y; domain 2; env t; dis d }
thread t { regs a b; a = load x; b = load y; store x b }
thread d { store x 1; store y 1 }`)
	sliced, _ := Slice(sys, SliceOptions{})
	if !strings.Contains(lang.Print(sliced), "load x") {
		t.Errorf("dead load removed — unsound under RA:\n%s", lang.Print(sliced))
	}
}

// TestSliceKeepsBlockingAssume: a reachable never-true assume is a
// blocking statement, not dead code; it must survive (only its successors
// are unreachable).
func TestSliceKeepsBlockingAssume(t *testing.T) {
	sys := mustSystem(t, `system s { vars x; domain 2; env t }
thread t { regs a; a = load x; assume 0 == 1; store x 1 }`)
	sliced, _ := Slice(sys, SliceOptions{})
	printed := lang.Print(sliced)
	if !strings.Contains(printed, "assume 0 == 1") {
		t.Errorf("blocking assume removed — would add behaviours:\n%s", printed)
	}
	if strings.Contains(printed, "store x 1") {
		t.Errorf("unreachable store survived:\n%s", printed)
	}
}

// TestSliceGuardedByWrittenValues: a statement behind `assume r == c` goes
// when r is loaded from a variable that is written, but never with c —
// written-sets that constant folding cannot see. In the load-buffering shape
// each store waits for the other, so neither ever runs and both variables
// only ever hold 0. A value that only a CAS publishes still counts as
// written. The loads (acquire) and the blocking assumes always stay.
func TestSliceGuardedByWrittenValues(t *testing.T) {
	for _, tc := range []struct {
		name, src  string
		gone, kept []string
	}{
		{"written-with-other-value", `system s { vars x y; domain 3; env w; dis c }
thread w { store x 1 }
thread c { regs r; r = load x; assume r == 2; store y 1; assert false }`,
			[]string{"store y", "assert"}, nil},
		{"lb-litmus", `system lb { vars x y; domain 2; env idle; dis t1; dis t2 }
thread idle { skip }
thread t1 { regs r1; r1 = load y; assume r1 == 1; store x 1; assert false }
thread t2 { regs r2; r2 = load x; assume r2 == 1; store y 1 }`,
			[]string{"store", "assert"}, nil},
		{"published-by-cas", `system s { vars x; domain 3; env w; dis c }
thread w { cas x 0 2 }
thread c { regs r; r = load x; assume r == 2; assert false }`,
			nil, []string{"assert"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := mustSystem(t, tc.src)
			sliced, stats := Slice(sys, SliceOptions{})
			if err := sliced.Validate(); err != nil {
				t.Fatalf("sliced system invalid: %v", err)
			}
			printed := lang.Print(sliced)
			for _, gone := range tc.gone {
				if strings.Contains(printed, gone) {
					t.Errorf("%s behind a never-written value survived (%v):\n%s", gone, stats, printed)
				}
			}
			for _, kept := range append([]string{"load", "assume"}, tc.kept...) {
				if !strings.Contains(printed, kept) {
					t.Errorf("sliced system lost %q:\n%s", kept, printed)
				}
			}
		})
	}
}

// TestSliceDoesNotMutateInput: the input system must be untouched.
func TestSliceDoesNotMutateInput(t *testing.T) {
	sys := mustSystem(t, `system s { vars x wonly; domain 2; env t }
thread t { regs a; a = load x; store wonly a; store x 1 }`)
	before := lang.Print(sys)
	Slice(sys, SliceOptions{})
	if after := lang.Print(sys); after != before {
		t.Errorf("input mutated:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestSliceSharedProgram: a program referenced as both env and dis is
// rewritten once and stays shared.
func TestSliceSharedProgram(t *testing.T) {
	prog := mustProgram(t, "thread t { regs a dead; dead = 1; a = load x; store x (a + 1) }", []string{"x"})
	sys := &lang.System{Name: "s", Vars: []string{"x"}, Dom: 3, Env: prog, Dis: []*lang.Program{prog}}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	sliced, stats := Slice(sys, SliceOptions{})
	if sliced.Env != sliced.Dis[0] {
		t.Error("program sharing lost")
	}
	if stats.RegsAfter != 1 {
		t.Errorf("regs after = %d, want 1 (dead removed once)", stats.RegsAfter)
	}
}
