package absint

import (
	"context"
	"testing"

	"paramra/internal/analysis"
	"paramra/internal/lang"
)

func parse(t *testing.T, src string) *lang.System {
	t.Helper()
	sys, err := lang.ParseSystem(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return sys
}

const mpSrc = `
system mp { vars x y; domain 2; env p; dis c }
thread p { store x 1; store y 1 }
thread c { regs a b; a = load y; assume a == 1; b = load x; assume b == 0; assert false }
`

func TestAnalyzeWrittenSets(t *testing.T) {
	sys := parse(t, mpSrc)
	res := analysis.Analyze(sys)
	x, _ := sys.VarByName("x")
	y, _ := sys.VarByName("y")
	if got := res.Written[x].String(); got != "{0,1}" {
		t.Fatalf("written(x) = %s", got)
	}
	if got := res.Written[y].String(); got != "{0,1}" {
		t.Fatalf("written(y) = %s", got)
	}
	// mp's assert is value-reachable (the value abstraction cannot see the
	// ordering that makes it safe).
	if !assertReachable(res) {
		t.Fatal("mp assert should be abstractly reachable")
	}
}

// The guard value 2 is never written: the assert is abstractly unreachable,
// so the system is decided SAFE without any state-space search.
const valueSafeSrc = `
system vsafe { vars f; domain 4; env w; dis c }
thread w { store f 1 }
thread c { regs a; a = load f; assume a == 2; assert false }
`

func TestAnalyzeProvesValueSafety(t *testing.T) {
	sys := parse(t, valueSafeSrc)
	res := analysis.Analyze(sys)
	f, _ := sys.VarByName("f")
	if got := res.Written[f].String(); got != "{0,1}" {
		t.Fatalf("written(f) = %s", got)
	}
	if assertReachable(res) {
		t.Fatal("assert should be abstractly unreachable")
	}
}

// Interference closure: thread b's store of 2 is guarded by a value only
// thread a publishes, and the assert is guarded by the 2 — reachability
// needs two interference rounds to propagate.
const chainSrc = `
system chain { vars x y; domain 4; env a; dis b; dis c }
thread a { store x 1 }
thread b { regs r; r = load x; assume r == 1; store y 2 }
thread c { regs s; s = load y; assume s == 2; assert false }
`

func TestAnalyzeInterferenceRounds(t *testing.T) {
	sys := parse(t, chainSrc)
	res := analysis.Analyze(sys)
	y, _ := sys.VarByName("y")
	if !res.VarCanHold(y, 2) {
		t.Fatalf("written(y) = %s must include the chained 2", res.Written[y])
	}
	if res.Rounds < 2 {
		t.Fatalf("chained publication needs >= 2 rounds, got %d", res.Rounds)
	}
	if !assertReachable(res) {
		t.Fatal("chained assert should be abstractly reachable")
	}
}

// A CAS whose expected value is never observable blocks forever, so the
// value it would publish never enters the written-set.
const casDeadSrc = `
system casdead { vars l g; domain 4; env w; dis c }
thread w { cas l 2 3 }
thread c { regs a; a = load l; assume a == 3; assert false }
`

func TestAnalyzeCASFeasibility(t *testing.T) {
	sys := parse(t, casDeadSrc)
	res := analysis.Analyze(sys)
	l, _ := sys.VarByName("l")
	if got := res.Written[l].String(); got != "{0}" {
		t.Fatalf("written(l) = %s; dead CAS must not publish", got)
	}
	if assertReachable(res) {
		t.Fatal("assert behind a dead CAS-published value should be unreachable")
	}
}

// Loops are handled by the fixpoint: a dis-cyclic system (outside the
// decidable fragment) can still be proved safe abstractly.
const cyclicSafeSrc = `
system cyc { vars x; domain 4; env w; dis c }
thread w { store x 1 }
thread c { regs a; while a == 0 { a = load x }; assume a == 3; assert false }
`

func TestAnalyzeCyclicDis(t *testing.T) {
	sys := parse(t, cyclicSafeSrc)
	res := analysis.Analyze(sys)
	if assertReachable(res) {
		t.Fatal("value 3 is never written; cyclic dis must still prove safety")
	}
}

func TestPrepassSafe(t *testing.T) {
	sys := parse(t, valueSafeSrc)
	out, err := Prepass(context.Background(), sys, Options{})
	if err != nil {
		t.Fatalf("prepass: %v", err)
	}
	if out.Verdict != Safe {
		t.Fatalf("verdict = %s (%s), want SAFE", out.Verdict, out.Reason)
	}
}

func TestPrepassUnsafeReplay(t *testing.T) {
	src := `
system prodcons { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
`
	sys := parse(t, src)
	out, err := Prepass(context.Background(), sys, Options{})
	if err != nil {
		t.Fatalf("prepass: %v", err)
	}
	if out.Verdict != Unsafe {
		t.Fatalf("verdict = %s (%s), want UNSAFE", out.Verdict, out.Reason)
	}
	if out.EnvThreads != 1 {
		t.Fatalf("confirming instance should need 1 env thread, got %d", out.EnvThreads)
	}
	if out.Witness == "" {
		t.Fatal("UNSAFE prepass must carry a concrete witness")
	}
}

func TestPrepassInconclusiveOnOrderingSafety(t *testing.T) {
	// mp is SAFE by ordering, which the value abstraction cannot prove; the
	// replay finds no violation either. The prepass must NOT claim UNSAFE.
	sys := parse(t, mpSrc)
	out, err := Prepass(context.Background(), sys, Options{})
	if err != nil {
		t.Fatalf("prepass: %v", err)
	}
	if out.Verdict != Inconclusive {
		t.Fatalf("verdict = %s (%s), want INCONCLUSIVE", out.Verdict, out.Reason)
	}
}

func TestPrepassGoal(t *testing.T) {
	sys := parse(t, valueSafeSrc)
	f, _ := sys.VarByName("f")
	out, err := Prepass(context.Background(), sys, Options{Goal: &Goal{Var: f, Val: 3}})
	if err != nil {
		t.Fatalf("prepass: %v", err)
	}
	if out.Verdict != Safe {
		t.Fatalf("goal 3 is unwritable; verdict = %s (%s)", out.Verdict, out.Reason)
	}
	out, err = Prepass(context.Background(), sys, Options{Goal: &Goal{Var: f, Val: 1}})
	if err != nil {
		t.Fatalf("prepass: %v", err)
	}
	if out.Verdict != Inconclusive {
		t.Fatalf("goal 1 is writable; verdict = %s, want INCONCLUSIVE", out.Verdict)
	}
}

func TestPrepassEnvlessDis(t *testing.T) {
	// Env-less two-thread store buffering: both threads can read 0 — UNSAFE
	// under RA; the replay at n=0 must confirm.
	src := `
system sb { vars x y; domain 2; dis t0; dis t1 }
thread t0 { regs a; store x 1; a = load y; assume a == 0; assert false }
thread t1 { store y 1 }
`
	sys := parse(t, src)
	out, err := Prepass(context.Background(), sys, Options{})
	if err != nil {
		t.Fatalf("prepass: %v", err)
	}
	if out.Verdict != Unsafe || out.EnvThreads != 0 {
		t.Fatalf("verdict = %s n=%d (%s), want UNSAFE n=0", out.Verdict, out.EnvThreads, out.Reason)
	}
}

func TestCandidateGate(t *testing.T) {
	// Assert reachable only through a loop: no loop-free candidate, so no
	// replay runs and the result is inconclusive — never a wrong verdict.
	src := `
system loopy { vars x; domain 4; env w; dis c }
thread w { store x 1 }
thread c { regs a n; while n != 3 { n = n + 1 }; a = load x; assume a == 1; assert false }
`
	sys := parse(t, src)
	res := analysis.Analyze(sys)
	if !assertReachable(res) {
		t.Fatal("assert is abstractly reachable")
	}
	// The while-loop path means every entry-to-assert path revisits the loop
	// head; the candidate search is loop-free so it must fail...
	cands := findCandidates(res)
	// ...except the zero-iteration exit (n != 3 fails immediately is
	// impossible: n starts 0). Actually n starts at 0 so the exit guard
	// !(n != 3) is false initially: the loop must iterate, and the DFS
	// cannot unroll it. No candidate.
	if len(cands) != 0 {
		t.Fatalf("expected no loop-free candidate, got %v", cands)
	}
}
