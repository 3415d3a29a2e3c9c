package tqbf

import (
	"context"
	"math/rand"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// reductionUnsafe runs the parameterized verifier on Reduce(q).
func reductionUnsafe(t *testing.T, q *QBF) bool {
	t.Helper()
	sys, err := Reduce(q)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	v, err := simplified.New(sys, simplified.Options{})
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	res := v.VerifyContext(context.Background())
	if !res.Unsafe && !res.Complete {
		t.Fatalf("verification incomplete")
	}
	return res.Unsafe
}

// TestTheorem51Fixed checks agreement on hand-picked formulas covering the
// quantifier-dependency corner cases.
func TestTheorem51Fixed(t *testing.T) {
	cases := []string{
		"forall u : u",        // false
		"forall u : (u | ~u)", // true
		"forall u : true",     // true
		"forall u0 exists e1 forall u1 : (~u0 | e1) & (u0 | ~e1)", // true: e1 := u0
		"forall u0 exists e1 forall u1 : (e1 | u1) & (~e1 | ~u1)", // false: e1 would need u1
		"forall u0 exists e1 forall u1 : (e1 | u0 | u1)",          // true: e1 := 1
		"forall u0 exists e1 forall u1 : (e1) & (~e1 | ~u1 | u1)", // true
		"forall u0 exists e1 forall u1 : (e1 & ~e1)",              // false (two clauses)
	}
	for _, src := range cases {
		q := mustParse(t, src).Normalize()
		want := q.Eval()
		got := reductionUnsafe(t, q)
		if got != want {
			t.Errorf("Theorem 5.1 mismatch for %q: QBF=%v, verifier=%v", src, want, got)
		}
	}
}

// TestTheorem51Random fuzzes the reduction against the brute-force
// evaluator on random paper-shape formulas.
func TestTheorem51Random(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping reduction fuzzing in -short mode")
	}
	r := rand.New(rand.NewSource(51))
	for i := 0; i < 25; i++ {
		q := Random(r, 1, 1+r.Intn(3))
		want := q.Eval()
		got := reductionUnsafe(t, q)
		if got != want {
			t.Fatalf("case %d: %s\nQBF=%v, verifier=%v", i, q, want, got)
		}
	}
}

// TestReductionIsPureRAEnvOnly checks the Theorem 5.1 claim that the
// reduction lands in the simplest fragment: env(nocas, acyc) and PureRA.
func TestReductionIsPureRAEnvOnly(t *testing.T) {
	q := mustParse(t, "forall u0 exists e1 forall u1 : (u0 | e1)").Normalize()
	sys, err := Reduce(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Dis) != 0 {
		t.Error("reduction must not use dis threads")
	}
	c := lang.Classify(sys)
	if !c.HasEnv || !c.Env.NoCAS || !c.Env.Acyclic {
		t.Errorf("reduction not in env(nocas, acyc): %s", c)
	}
	if !lang.PureRA(sys) {
		t.Error("reduction not in PureRA (stores must write 1 to 0-initialized memory)")
	}
}

func TestReduceRejectsWrongShape(t *testing.T) {
	if _, err := Reduce(mustParse(t, "exists e : e")); err == nil {
		t.Error("non-paper-shape formula accepted")
	}
}
