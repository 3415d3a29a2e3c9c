package simplified

import (
	"context"
	"math/rand"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/ra"
)

// Theorem 3.4 (soundness and completeness of the simplified semantics) is
// validated differentially against the concrete RA explorer:
//
//   - completeness of the abstraction: if some finite instance (N env
//     threads) is unsafe under concrete RA, the parameterized verifier must
//     report unsafe;
//   - soundness: if the parameterized verifier reports unsafe, some finite
//     instance must be unsafe (we search N = 0..maxN and require a hit).
//
// The instances explored are small enough that concrete exploration is
// exhaustive, so a mismatch is a real semantics bug, not a search artifact.

const (
	diffMaxEnv    = 3
	diffRAStates  = 400_000
	diffRandCases = 40
)

// concreteUnsafeUpTo returns (unsafe, confirmedN, exhaustive). exhaustive is
// false if some instance exploration hit limits without a verdict.
func concreteUnsafeUpTo(t *testing.T, sys *lang.System, maxN int) (bool, int, bool) {
	t.Helper()
	exhaustive := true
	hi := maxN
	if sys.Env == nil {
		hi = 0
	}
	for n := 0; n <= hi; n++ {
		inst, err := ra.NewInstance(sys, n)
		if err != nil {
			t.Fatalf("instance N=%d: %v", n, err)
		}
		res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: diffRAStates, Symmetry: true})
		if res.Unsafe {
			return true, n, exhaustive
		}
		if !res.Complete {
			exhaustive = false
		}
	}
	return false, -1, exhaustive
}

func checkAgainstConcrete(t *testing.T, name string, sys *lang.System) {
	t.Helper()
	v, err := New(sys, Options{MaxMacroStates: 300_000})
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	simp := verify1(v)
	if !simp.Unsafe && !simp.Complete {
		t.Logf("%s: simplified search incomplete, skipping", name)
		return
	}
	concUnsafe, atN, exhaustive := concreteUnsafeUpTo(t, sys, diffMaxEnv)

	if concUnsafe && !simp.Unsafe {
		t.Errorf("%s: COMPLETENESS violation — concrete unsafe at N=%d but simplified safe\n%s",
			name, atN, lang.Print(sys))
	}
	if simp.Unsafe && !concUnsafe {
		if exhaustive {
			t.Errorf("%s: SOUNDNESS violation — simplified unsafe but all instances N≤%d safe\n%s",
				name, diffMaxEnv, lang.Print(sys))
		} else {
			t.Logf("%s: simplified unsafe, concrete search non-exhaustive (inconclusive)", name)
		}
	}
}

func TestTheorem34Corpus(t *testing.T) {
	corpus := map[string]string{
		"prodcons-unsafe": `
system s { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
`,
		"mp-safe": `
system s { vars x y; domain 2; env p; dis c }
thread p { store x 1; store y 1 }
thread c { regs a b; a = load y; assume a == 1; b = load x; assume b == 0; assert false }
`,
		"chain-two-threads": `
system s { vars x; domain 4; env inc; dis w }
thread inc { regs r; r = load x; store x (r + 1) }
thread w { regs s; s = load x; assume s == 2; assert false }
`,
		"sb-weak-allowed": `
system s { vars x y a; domain 2; env e; dis t1; dis t2 }
thread e { skip }
thread t1 { regs r1; store x 1; r1 = load y; assume r1 == 0; store a 1 }
thread t2 { regs r2 r3; store y 1; r2 = load x; assume r2 == 0; r3 = load a; assume r3 == 1; assert false }
`,
		"cas-mutex-safe": `
system s { vars x a; domain 2; env e; dis t1; dis t2 }
thread e { skip }
thread t1 { cas x 0 1; store a 1 }
thread t2 { regs r; cas x 0 1; r = load a; assume r == 1; assert false }
`,
		"cas-env-supply-unsafe": `
system s { vars x a; domain 2; env w; dis t1; dis t2 }
thread w { store x 1 }
thread t1 { cas x 1 0; store a 1 }
thread t2 { regs r; cas x 1 0; r = load a; assume r == 1; assert false }
`,
		"env-bump-coherence-safe": `
system s { vars x; domain 6; env w; dis r1; dis a1 }
thread w { store x 1 }
thread a1 { store x 5 }
thread r1 { regs a b c; a = load x; assume a == 5; b = load x; assume b == 1; c = load x; assume c == 5; assert false }
`,
		"env-observes-dis-safe": `
system s { vars x y; domain 3; env e; dis d }
thread e { regs r; r = load x; assume r == 2; store y 1 }
thread d { regs s; s = load y; assume s == 1; assert false }
`,
		"env-observes-dis-unsafe": `
system s { vars x y; domain 3; env e; dis d }
thread e { regs r; r = load x; assume r == 2; store y 1 }
thread d { regs s; store x 2; s = load y; assume s == 1; assert false }
`,
		"two-phase-handshake": `
system s { vars req ack; domain 3; env server; dis client }
thread server { regs r; r = load req; assume r == 1; store ack 2 }
thread client { regs a; store req 1; a = load ack; assume a == 2; assert false }
`,
		"stale-read-after-env": `
system s { vars x f; domain 3; env w; dis d }
thread w { store x 1; store f 1 }
thread d { regs a b; a = load f; assume a == 1; b = load x; assume b == 0; assert false }
`,
		"env-reads-own-kind": `
system s { vars x y; domain 4; env e; dis d }
thread e { regs r; choice { store x 1 } or { r = load x; assume r == 1; store y 3 } }
thread d { regs s; s = load y; assume s == 3; assert false }
`,
	}
	for name, src := range corpus {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			checkAgainstConcrete(t, name, lang.MustParseSystem(src))
		})
	}
}

// randProgram builds a small random straight-line-with-choice program.
func randProgram(r *rand.Rand, name string, numVars, dom int, allowAssert bool) *lang.Program {
	b := lang.NewProgramBuilder(name)
	r0 := b.Reg("r0")
	r1 := b.Reg("r1")
	regs := []lang.RegID{r0, r1}
	nOps := 2 + r.Intn(4)
	var stmts []lang.Stmt
	for i := 0; i < nOps; i++ {
		v := lang.VarID(r.Intn(numVars))
		reg := regs[r.Intn(len(regs))]
		c := lang.Val(r.Intn(dom))
		switch r.Intn(6) {
		case 0, 1:
			stmts = append(stmts, lang.Load{Reg: reg, Var: v})
		case 2, 3:
			if r.Intn(2) == 0 {
				stmts = append(stmts, lang.Store{Var: v, E: lang.Num(c)})
			} else {
				stmts = append(stmts, lang.Store{Var: v, E: lang.Bin(lang.OpAdd, lang.Reg(reg), lang.Num(1))})
			}
		case 4:
			stmts = append(stmts, lang.Assume{Cond: lang.Eq(lang.Reg(reg), lang.Num(c))})
		case 5:
			stmts = append(stmts, lang.ChoiceOf(
				lang.Store{Var: v, E: lang.Num(c)},
				lang.SeqOf(lang.Load{Reg: reg, Var: v}, lang.Assume{Cond: lang.Ne(lang.Reg(reg), lang.Num(c))}),
			))
		}
	}
	if allowAssert {
		v := lang.VarID(r.Intn(numVars))
		c := lang.Val(r.Intn(dom))
		stmts = append(stmts,
			lang.Load{Reg: r0, Var: v},
			lang.Assume{Cond: lang.Eq(lang.Reg(r0), lang.Num(c))},
			lang.AssertFail{},
		)
	}
	return b.Build(stmts...)
}

// TestTheorem34Random fuzzes the equivalence on random small systems.
func TestTheorem34Random(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fuzzing skipped in -short mode")
	}
	r := rand.New(rand.NewSource(20220725)) // PODC'22 conference date
	for i := 0; i < diffRandCases; i++ {
		numVars := 1 + r.Intn(2)
		dom := 2 + r.Intn(2)
		sb := lang.NewSystemBuilder("rand", dom)
		for v := 0; v < numVars; v++ {
			sb.Var(string(rune('a' + v)))
		}
		env := randProgram(r, "env", numVars, dom, r.Intn(4) == 0)
		dis := randProgram(r, "dis", numVars, dom, true)
		sys := sb.Env(env).Dis(dis).Build()
		if err := sys.Validate(); err != nil {
			t.Fatalf("case %d: generated invalid system: %v", i, err)
		}
		checkAgainstConcrete(t, "rand", sys)
		if t.Failed() {
			t.Fatalf("case %d failed (seed-deterministic)", i)
		}
	}
}
