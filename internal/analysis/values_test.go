package analysis

import (
	"testing"

	"paramra/internal/lang"
)

// edgeOf returns the first edge of kind k in g.
func edgeOf(t *testing.T, g *lang.CFG, k lang.OpKind) lang.Edge {
	t.Helper()
	for _, edges := range g.Out {
		for _, e := range edges {
			if e.Op.Kind == k {
				return e
			}
		}
	}
	t.Fatalf("no %v edge", k)
	return lang.Edge{}
}

// TestValuesBranchJoin: a register holding the same value on both branches
// keeps that single value at the join; differing values join into their
// union.
func TestValuesBranchJoin(t *testing.T) {
	sys := mustSystem(t, `system s { vars x; domain 4; env t }
thread t {
  regs a b
  choice { a = 2; b = 1 } or { a = 2; b = 3 }
  store x a
}`)
	tf := Analyze(sys).Threads[0]
	st := edgeOf(t, tf.CFG, lang.OpStore)
	if got := tf.RegAt(st.From, 0).String(); got != "{2}" {
		t.Errorf("a at the join = %s, want {2}", got)
	}
	if got := tf.RegAt(st.From, 1).String(); got != "{1,3}" {
		t.Errorf("b at the join = %s, want {1,3}", got)
	}
}

// TestValuesUnreachable: a never-true assume makes everything after it
// unreachable, and EvalAt is bottom there.
func TestValuesUnreachable(t *testing.T) {
	sys := mustSystem(t, `system s { vars x; domain 2; env t }
thread t { regs a; assume 0 == 1; a = load x; store x 1 }`)
	res := Analyze(sys)
	tf := res.Threads[0]
	if !tf.Reachable(tf.CFG.Entry) {
		t.Fatal("entry must be reachable")
	}
	for _, k := range []lang.OpKind{lang.OpLoad, lang.OpStore} {
		e := edgeOf(t, tf.CFG, k)
		if tf.Reachable(e.From) {
			t.Errorf("%v after a never-true assume should be unreachable", k)
		}
		if !tf.EvalAt(e.From, lang.Num(1)).IsEmpty() {
			t.Error("EvalAt at an unreachable PC must be bottom")
		}
	}
	if got := res.Written[0].String(); got != "{0}" {
		t.Errorf("written(x) = %s; an unreachable store publishes nothing", got)
	}
}

// TestValuesNeverWrittenVar: a load from a variable nobody writes yields
// exactly the initial value; a load from a written variable yields its
// whole written-set.
func TestValuesNeverWrittenVar(t *testing.T) {
	sys := mustSystem(t, `system s { vars ro rw; domain 3; init 2; env t }
thread t { regs a b; a = load ro; b = load rw; store rw (b + 1) }`)
	tf := Analyze(sys).Threads[0]
	exit := terminalPC(tf.CFG)
	if got := tf.RegAt(exit, 0).String(); got != "{2}" {
		t.Errorf("load from never-written var = %s, want the initial value {2}", got)
	}
	if got := tf.RegAt(exit, 1).String(); got != "{0,1,2}" {
		t.Errorf("load from a written var = %s, want its written-set {0,1,2}", got)
	}
}

// TestWrittenSets: a variable's written-set holds the initial value and
// every value a reachable store or feasible CAS publishes, including values
// stored from registers.
func TestWrittenSets(t *testing.T) {
	sys := mustSystem(t, `system s { vars c anyv; domain 5; env t }
thread t { regs r; store c 3; cas c 3 4; r = load c; store anyv r }`)
	res := Analyze(sys)
	c, _ := sys.VarByName("c")
	a, _ := sys.VarByName("anyv")
	for val, want := range map[lang.Val]bool{0: true, 3: true, 4: true, 1: false, 2: false} {
		if got := res.VarCanHold(c, val); got != want {
			t.Errorf("VarCanHold(c, %d) = %v, want %v", val, got, want)
		}
	}
	if got := res.Written[a].String(); got != "{0,3,4}" {
		t.Errorf("written(anyv) = %s, want every value c can hold, {0,3,4}", got)
	}
}

// TestWrittenSetsNormalization: the engines reduce every stored, assigned
// and CAS-expected value mod Dom, so the analysis must compare normalized
// values. `cas x (1+1) 0` in domain 2 expects norm(2) = 0 — the initial
// value — and genuinely succeeds; treating it as impossible changed
// verdicts (found by the differential fuzzer, seed 883).
func TestWrittenSetsNormalization(t *testing.T) {
	sys := mustSystem(t, `system s { vars x; domain 2; dis d }
thread d {
  cas x (1 + 1) 0
  assert false
}`)
	res := Analyze(sys)
	if !res.VarCanHold(0, 2) {
		t.Error("VarCanHold(x, 2) = false; 2 normalizes to 0, which x holds initially")
	}
	if res.VarCanHold(0, -1) {
		t.Error("VarCanHold(x, -1) = true; -1 normalizes to 1, which nothing ever writes")
	}
	tf := res.Threads[0]
	if e := edgeOf(t, tf.CFG, lang.OpAssertFail); !tf.Reachable(e.From) {
		t.Error("assert after a norm-feasible CAS reported unreachable")
	}

	// Stored constants are normalized too: store x (-1) writes 1 in
	// domain 2, so expecting 1 (or 3, ≡ 1) is feasible.
	res2 := Analyze(mustSystem(t, `system s { vars x; domain 2; env t }
thread t { store x (0 - 1) }`))
	if !res2.VarCanHold(0, 1) || !res2.VarCanHold(0, 3) {
		t.Error("store of -1 must make values ≡ 1 (mod 2) feasible")
	}

	// Assigned registers hold the normalized value: a = 1+1 is 0 in
	// domain 2.
	res3 := Analyze(mustSystem(t, `system s { vars x; domain 2; env t }
thread t { regs a; a = 1 + 1; store x a }`))
	tf3 := res3.Threads[0]
	if got := tf3.RegAt(edgeOf(t, tf3.CFG, lang.OpStore).From, 0).String(); got != "{0}" {
		t.Errorf("a = 1+1 holds %s, want {0} (normalized)", got)
	}
}
