package encode

import (
	"context"
	"testing"

	"paramra/internal/datalog"
	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// checkAgainstVerifier asserts that the Datalog pipeline verdict matches the
// integrated fixpoint verifier (Lemma 4.3: MG holds iff some makeP instance
// has a successful query evaluation).
func checkAgainstVerifier(t *testing.T, src string) {
	t.Helper()
	sys := lang.MustParseSystem(src)
	v, err := simplified.New(sys, simplified.Options{Workers: 1})
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	want := v.VerifyContext(context.Background()).Unsafe

	ps, complete, err := collect(context.Background(), sys, 50_000, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !complete {
		t.Fatalf("skeleton enumeration incomplete")
	}
	got := anyHolds(ps)
	if got != want {
		t.Fatalf("datalog pipeline says unsafe=%v, verifier says %v (%d skeletons)",
			got, want, len(ps))
	}
}

// collect gathers every instance an Encoder emits for sys, for the tests
// that compare whole instance sets.
func collect(ctx context.Context, sys *lang.System, maxSkeletons int, hints Hints) ([]*Problem, bool, error) {
	e, err := New(sys, hints)
	if err != nil {
		return nil, false, err
	}
	var ps []*Problem
	complete, err := e.Each(ctx, maxSkeletons, func(p *Problem) bool {
		ps = append(ps, p)
		return true
	})
	return ps, complete, err
}

// anyHolds is the ∃-over-skeletons semantics of Theorem 4.1, evaluated
// sequentially: the system is unsafe iff some instance's query holds.
func anyHolds(ps []*Problem) bool {
	for _, p := range ps {
		if datalog.Query(p.Program(), p.Goal) {
			return true
		}
	}
	return false
}

func TestEncodeEnvOnlyUnsafe(t *testing.T) {
	checkAgainstVerifier(t, `
system s { vars x y; domain 3; env w }
thread w {
  regs r
  choice { store x 1 } or {
    r = load x; assume r == 1
    store y 2
  } or {
    r = load y; assume r == 2
    assert false
  }
}
`)
}

func TestEncodeEnvOnlySafe(t *testing.T) {
	checkAgainstVerifier(t, `
system s { vars x y; domain 3; env w }
thread w {
  regs r
  r = load y; assume r == 2
  assert false
}
`)
}

func TestEncodeEnvLoops(t *testing.T) {
	checkAgainstVerifier(t, `
system s { vars x; domain 5; env w }
thread w {
  regs r
  loop { r = load x; store x (r + 1) }
  assume r == 3
  assert false
}
`)
}

func TestEncodeProdConsUnsafe(t *testing.T) {
	checkAgainstVerifier(t, `
system s { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
`)
}

func TestEncodeMPSafe(t *testing.T) {
	checkAgainstVerifier(t, `
system s { vars x y; domain 2; env p; dis c }
thread p { store x 1; store y 1 }
thread c { regs a b; a = load y; assume a == 1; b = load x; assume b == 0; assert false }
`)
}

func TestEncodeCASEnvSupply(t *testing.T) {
	checkAgainstVerifier(t, `
system s { vars x a; domain 2; env w; dis t1; dis t2 }
thread w { store x 1 }
thread t1 { cas x 1 0; store a 1 }
thread t2 { regs r; cas x 1 0; r = load a; assume r == 1; assert false }
`)
}

func TestEncodeCASMutexSafe(t *testing.T) {
	checkAgainstVerifier(t, `
system s { vars x a; domain 2; env e; dis t1; dis t2 }
thread e { skip }
thread t1 { cas x 0 1; store a 1 }
thread t2 { regs r; cas x 0 1; r = load a; assume r == 1; assert false }
`)
}

func TestEncodeDisStoreFeedsEnv(t *testing.T) {
	// The env thread can act only after the dis store: exercises the dmp
	// step-chain causality.
	checkAgainstVerifier(t, `
system s { vars x y; domain 3; env e; dis d }
thread e { regs r; r = load x; assume r == 2; store y 1 }
thread d { regs s; store x 2; s = load y; assume s == 1; assert false }
`)
}

func TestEncodeCausalityRespected(t *testing.T) {
	// Unsafe only if the dis thread could read y=1 *before* storing x=2 —
	// which causality forbids: env writes y=1 only after seeing x=2.
	checkAgainstVerifier(t, `
system s { vars x y; domain 3; env e; dis d }
thread e { regs r; r = load x; assume r == 2; store y 1 }
thread d { regs s; s = load y; assume s == 1; store x 2; assert false }
`)
}

func TestEnvOnlySingleProblem(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 2; env w }
thread w { store x 1 }
`)
	p, err := EnvOnly(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 1 || len(p.Rules[0].Body) != 0 {
		t.Errorf("env-only problem has %d own rules, want the single fact step0()", len(p.Rules))
	}
	// Rule shape check: at most 2 IDB body atoms per rule (the Cache
	// Datalog requirement behind Theorem 4.1).
	for _, r := range p.Program().Rules {
		idb := 0
		for _, a := range r.Body {
			if !p.EDBPreds[a.Pred] {
				idb++
			}
		}
		if idb > 2 {
			t.Fatalf("rule with %d IDB body atoms: %s", idb, p.Program().AtomString(r.Head))
		}
	}
}

func TestEnvOnlyRejectsDis(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 2; env w; dis d }
thread w { skip }
thread d { skip }
`)
	if _, err := EnvOnly(sys); err == nil {
		t.Error("EnvOnly accepted a system with dis threads")
	}
}

func TestAllRejectsNoEnv(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 2; dis d }
thread d { skip }
`)
	if _, err := New(sys, nil); err == nil {
		t.Error("New accepted a system without env")
	}
}

func TestEncodedProgramQueriesDirectly(t *testing.T) {
	// Inspect the generated program: the emp atom for the env store must be
	// derivable.
	sys := lang.MustParseSystem(`
system s { vars x; domain 2; env w }
thread w { store x 1 }
`)
	p, err := EnvOnly(sys)
	if err != nil {
		t.Fatal(err)
	}
	db := datalog.EvalSemiNaive(p.Program())
	found := false
	for _, g := range db.All() {
		if p.Program().Preds[g.Pred].Name == "emp" {
			found = true
		}
	}
	if !found {
		t.Fatal("no emp atom derived for the env store")
	}
	if datalog.Query(p.Program(), p.Goal) {
		t.Error("system without asserts must be safe")
	}
}
