package simplified

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/tqbf"
)

// verify1 runs v's search.
func verify1(v *Verifier) Result {
	return v.VerifyContext(context.Background())
}

// verify parses and runs the parameterized verifier.
func verify(t *testing.T, src string, opts Options) Result {
	t.Helper()
	sys, err := lang.ParseSystem(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	v, err := New(sys, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := verify1(v)
	if !res.Unsafe && !res.Complete {
		t.Fatalf("verification incomplete (states=%d)", res.Stats.MacroStates)
	}
	return res
}

func TestProducerConsumerUnsafe(t *testing.T) {
	res := verify(t, `
system prodcons { vars x y; domain 4; env producer; dis consumer }
thread producer {
  regs r
  r = load y; assume r == 1
  store x 2
}
thread consumer {
  regs s
  store y 1
  s = load x; assume s == 2
  assert false
}
`, Options{})
	if !res.Unsafe {
		t.Fatal("producer-consumer must be unsafe")
	}
	if res.Violation == nil || res.Violation.ByEnv {
		t.Fatalf("violation should be by the dis consumer: %+v", res.Violation)
	}
	if got, err := res.Violation.Resolver().Keys(res.Violation.Log); err != nil || len(got) != 1 {
		t.Errorf("consumer read log = %v (%v), want exactly the x=2 read", got, err)
	}
}

func TestNoEnvNeededStaysSafe(t *testing.T) {
	// Without the env store the consumer can never read 2.
	res := verify(t, `
system s { vars x y; domain 4; env idle; dis consumer }
thread idle { skip }
thread consumer {
  regs s
  store y 1
  s = load x; assume s == 2
  assert false
}
`, Options{})
	if res.Unsafe {
		t.Fatal("no thread writes 2: must be safe")
	}
}

// TestEnvChaining: env threads can build on each other's messages — value
// escalation through the ⁺-timestamps, needing a chain of distinct env
// threads (Figure 3's essence).
func TestEnvChaining(t *testing.T) {
	res := verify(t, `
system chain { vars x; domain 6; env inc; dis watcher }
thread inc {
  regs r
  r = load x
  store x (r + 1)
}
thread watcher {
  regs s
  s = load x; assume s == 4
  assert false
}
`, Options{})
	if !res.Unsafe {
		t.Fatal("chained env increments should reach 4")
	}
}

func TestEnvChainingBeyondDomainSafe(t *testing.T) {
	// Domain 4 means values wrap mod 4; value 4 does not exist, and assume
	// s == 5 can never hold over registers normalized into the domain.
	res := verify(t, `
system chain { vars x; domain 4; env inc; dis watcher }
thread inc {
  regs r
  r = load x
  store x (r + 1)
}
thread watcher {
  regs s
  s = load x; assume s == 5
  assert false
}
`, Options{})
	if res.Unsafe {
		t.Fatal("value 5 outside domain must be unreachable")
	}
}

// TestMessagePassingSafeParameterized: RA's causality must survive the
// abstraction — after reading the flag written by an env thread, the stale
// x=0 is unreadable because the env message's view is joined in.
func TestMessagePassingSafeParameterized(t *testing.T) {
	res := verify(t, `
system mp { vars x y; domain 2; env producer; dis consumer }
thread producer {
  store x 1
  store y 1
}
thread consumer {
  regs r1 r2
  r1 = load y; assume r1 == 1
  r2 = load x; assume r2 == 0
  assert false
}
`, Options{})
	if res.Unsafe {
		t.Fatal("MP weak behaviour leaked through the timestamp abstraction")
	}
}

// TestEnvLoadBumpsView is the soundness anchor for the ⁺-region bump: a dis
// thread that has observed a dis message at integer timestamp t and then
// loads an env message on the same variable reads a clone placed strictly
// above its view, so it can never re-read the dis message.
func TestEnvLoadBumpsView(t *testing.T) {
	res := verify(t, `
system bump { vars x; domain 6; env writer; dis reader; dis author }
thread writer {
  store x 1
}
thread author {
  store x 5
}
thread reader {
  regs a b c
  a = load x; assume a == 5
  b = load x; assume b == 1
  c = load x; assume c == 5
  assert false
}
`, Options{})
	if res.Unsafe {
		t.Fatal("re-reading a dis message after an env load on the same variable must be impossible")
	}
}

// TestEnvLoadBumpPositive: reading 5, then 1 is fine (clone above), just
// not returning to 5.
func TestEnvLoadBumpPositive(t *testing.T) {
	res := verify(t, `
system bump2 { vars x; domain 6; env writer; dis reader; dis author }
thread writer {
  store x 1
}
thread author {
  store x 5
}
thread reader {
  regs a b
  a = load x; assume a == 5
  b = load x; assume b == 1
  assert false
}
`, Options{})
	if !res.Unsafe {
		t.Fatal("env clones must remain readable above any view")
	}
}

func TestDisCASMutualExclusion(t *testing.T) {
	res := verify(t, `
system casmx { vars x a; domain 2; env idle; dis t1; dis t2 }
thread idle { skip }
thread t1 { cas x 0 1; store a 1 }
thread t2 {
  regs r
  cas x 0 1
  r = load a; assume r == 1
  assert false
}
`, Options{})
	if res.Unsafe {
		t.Fatal("two CAS(0→1) on the init message cannot both succeed")
	}
}

// TestCASOnEnvMessagesBothSucceed: infinitely many env threads supply
// infinitely many 1-valued clones, so two dis CAS(1→0) can both succeed —
// a behaviour impossible with a single writer thread.
func TestCASOnEnvMessagesBothSucceed(t *testing.T) {
	res := verify(t, `
system cassupply { vars x a; domain 2; env writer; dis t1; dis t2 }
thread writer { store x 1 }
thread t1 { cas x 1 0; store a 1 }
thread t2 {
  regs r
  cas x 1 0
  r = load a; assume r == 1
  assert false
}
`, Options{})
	if !res.Unsafe {
		t.Fatal("infinite supply of env messages must let both CAS succeed")
	}
}

func TestEnvAssertDetected(t *testing.T) {
	res := verify(t, `
system easy { vars x; domain 2; env worker }
thread worker {
  regs r
  r = load x; assume r == 0
  assert false
}
`, Options{})
	if !res.Unsafe {
		t.Fatal("env assert unreachable?")
	}
	if res.Violation == nil || !res.Violation.ByEnv {
		t.Fatalf("violation should be by env: %+v", res.Violation)
	}
}

func TestMessageGenerationGoal(t *testing.T) {
	sys := lang.MustParseSystem(`
system mg { vars x flag; domain 3; env worker }
thread worker {
  regs r
  r = load x; assume r == 0
  store flag 2
}
`)
	fl, _ := sys.VarByName("flag")
	v, err := New(sys, Options{Goal: &Goal{Var: fl, Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res := verify1(v)
	if !res.Unsafe {
		t.Fatal("goal message (flag,2) should be generatable")
	}
	if res.Violation.GoalMsg == nil || res.Violation.GoalMsg.Val != 2 {
		t.Fatalf("goal message missing: %+v", res.Violation)
	}

	v2, err := New(sys, Options{Goal: &Goal{Var: fl, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if verify1(v2).Unsafe {
		t.Fatal("goal message (flag,1) is never written")
	}
}

func TestGoalInitialValueTrivial(t *testing.T) {
	sys := lang.MustParseSystem(`
system mg { vars x; domain 2; env w }
thread w { skip }
`)
	x, _ := sys.VarByName("x")
	v, err := New(sys, Options{Goal: &Goal{Var: x, Val: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !verify1(v).Unsafe {
		t.Fatal("initial message must satisfy the (x,0) goal")
	}
}

func TestClassRejection(t *testing.T) {
	envCAS := lang.MustParseSystem(`
system bad { vars x; domain 2; env e }
thread e { cas x 0 1 }
`)
	if _, err := New(envCAS, Options{}); !errors.Is(err, ErrEnvCAS) {
		t.Errorf("env CAS not rejected: %v", err)
	}
	disLoop := lang.MustParseSystem(`
system bad2 { vars x; domain 2; dis d }
thread d { loop { store x 1 } }
`)
	if _, err := New(disLoop, Options{}); !errors.Is(err, ErrDisCyclic) {
		t.Errorf("cyclic dis not rejected: %v", err)
	}
	invalid := &lang.System{Name: "broken"}
	if _, err := New(invalid, Options{}); err == nil {
		t.Error("invalid system not rejected")
	}
}

func TestEnvLoopsAreExact(t *testing.T) {
	// Env threads may loop freely — the saturation handles them exactly.
	res := verify(t, `
system loopy { vars x done; domain 8; env stepper; dis checker }
thread stepper {
  regs r
  loop {
    r = load x
    store x (r + 1)
  }
}
thread checker {
  regs s
  s = load x; assume s == 7
  assert false
}
`, Options{})
	if !res.Unsafe {
		t.Fatal("looping env thread should reach 7")
	}
}

func TestBudgetComputed(t *testing.T) {
	sys := lang.MustParseSystem(`
system b { vars x y; domain 2; dis d1; dis d2 }
thread d1 { store x 1; store x 1; cas y 0 1 }
thread d2 { store y 1 }
`)
	v, err := New(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := v.Budget()
	if b[0] != 2*2+2 { // two stores on x
		t.Errorf("budget x = %d, want 6", b[0])
	}
	if b[1] != 2*2+2 { // store + cas on y
		t.Errorf("budget y = %d, want 6", b[1])
	}
}

func TestStatsPopulated(t *testing.T) {
	res := verify(t, `
system s { vars x; domain 3; env w; dis d }
thread w { store x 1 }
thread d { regs r; r = load x; store x 2 }
`, Options{})
	st := res.Stats
	if st.MacroStates < 2 || st.DisTransitions < 2 || st.EnvMsgs < 1 || st.SaturationSteps < 1 {
		t.Errorf("implausible stats: %+v", st)
	}
}

func TestMaxMacroStatesLimit(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x y z; domain 4; dis a; dis b }
thread a { regs r; r = load x; store y (r+1); store z r; store x 3 }
thread b { regs q; q = load z; store x (q+2); store y 1 }
`)
	v, err := New(sys, Options{MaxMacroStates: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := verify1(v)
	if res.Unsafe {
		t.Fatal("no asserts present")
	}
	if res.Complete {
		t.Error("limited search claimed completeness")
	}
	if res.Stats.MacroStates > 5 {
		t.Errorf("macro-state cap exceeded: %d", res.Stats.MacroStates)
	}
}

// TestDisOnlyCoherence: with no env threads the simplified semantics
// degenerates to plain RA over integer timestamps; coherence must hold.
func TestDisOnlyCoherence(t *testing.T) {
	res := verify(t, `
system corr { vars x f; domain 3; dis w1; dis w2; dis t3; dis t4 }
thread w1 { store x 1 }
thread w2 { store x 2 }
thread t3 {
  regs a b
  a = load x; assume a == 1
  b = load x; assume b == 2
  store f 1
}
thread t4 {
  regs c d r
  c = load x; assume c == 2
  d = load x; assume d == 1
  r = load f; assume r == 1
  assert false
}
`, Options{})
	if res.Unsafe {
		t.Fatal("coherence violated in dis-only mode")
	}
}

// TestAbstractTimeOrder pins the encoded order 0 < 0⁺ < 1 < 1⁺ < ….
func TestAbstractTimeOrder(t *testing.T) {
	if !(Int(0) < Plus(0) && Plus(0) < Int(1) && Int(1) < Plus(1) && Plus(1) < Int(2)) {
		t.Fatal("abstract time order broken")
	}
	if Int(3).Floor() != 3 || Plus(3).Floor() != 3 {
		t.Error("Floor broken")
	}
	if Int(2).IsPlus() || !Plus(2).IsPlus() {
		t.Error("IsPlus broken")
	}
	if Plus(2).String() != "2+" || Int(2).String() != "2" {
		t.Error("String broken")
	}
}

func TestReadLogChronological(t *testing.T) {
	a, b, c := InitRef(0), DisRef(1, 2), EnvRef(0)
	l := &ReadLog{Ref: c, Prev: &ReadLog{Ref: b, Prev: &ReadLog{Ref: a}}}
	got := l.Refs()
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Errorf("Refs = %v", got)
	}
	var nilLog *ReadLog
	if len(nilLog.Refs()) != 0 {
		t.Error("nil log should have no refs")
	}

	// A resolver names each reference by the key of the message it refers
	// to, in the violation's own configuration, and rejects the rest.
	mem := NewDisMem(2, 0)
	mem.Put(AMsg{Var: 1, TS: Int(2), Val: 1, View: AView{Int(0), Int(2)}, Ref: b})
	env := NewEnvSet(2)
	env.AddMsg(AMsg{Var: 0, TS: Plus(0), Val: 1, View: AView{Plus(0), Int(0)}, Env: true}, nil)
	keys, err := (&Violation{Mem: mem, Env: env}).Resolver().Keys(l)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"0@0=0<0,0,>", "1@4=1<0,4,>", "0@1=1<1,0,>"}; !slices.Equal(keys, want) {
		t.Errorf("Keys = %v, want %v", keys, want)
	}
	if _, err := (&Violation{Mem: mem}).Resolver().Keys(l); err == nil {
		t.Error("a reference to a message the configuration lacks must not resolve")
	}
}

// TestSaturationHonoursCancellation: env saturation polls its context, so a
// cancelled search stops inside the initial saturation instead of running
// it to its end, and reports no verdict. The system is the scaling
// experiment's TQBF family at depth 3 (seed 7): its fixpoint is one
// macro-state whose initial saturation takes 445,689 steps, about 0.1 s on
// a 2-CPU Xeon.
func TestSaturationHonoursCancellation(t *testing.T) {
	sys, err := tqbf.Reduce(tqbf.Random(rand.New(rand.NewSource(7)), 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := v.VerifyContext(ctx)
	if !errors.Is(res.Err, context.Canceled) || res.Complete || res.Unsafe {
		t.Fatalf("cancelled search: err=%v complete=%v unsafe=%v, want context.Canceled, incomplete, no verdict",
			res.Err, res.Complete, res.Unsafe)
	}
	// At most one poll interval of pops, each taking every edge out of its
	// configuration's PC.
	maxOut := 0
	for _, edges := range v.envCFG.Out {
		maxOut = max(maxOut, len(edges))
	}
	if bound := satPollEvery * maxOut; res.Stats.SaturationSteps > bound {
		t.Errorf("cancelled search made %d saturation steps, want at most %d", res.Stats.SaturationSteps, bound)
	}
	if res.Stats.MacroStates != 0 || res.Engine.States != 0 {
		t.Errorf("cancelled search counts %d macro-states (engine %d), want 0: the half-saturated state is not admitted",
			res.Stats.MacroStates, res.Engine.States)
	}
	// The inventory records the messages of admitted states only, so a
	// half-saturated initial state contributes none.
	inv, _, complete := v.InventoryContext(ctx)
	if complete {
		t.Error("cancelled inventory reports complete")
	}
	for x, vals := range inv {
		if len(vals) != 0 {
			t.Errorf("cancelled inventory records values %v of var %d", vals, x)
		}
	}
}
