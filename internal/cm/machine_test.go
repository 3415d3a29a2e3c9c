package cm

import (
	"context"
	"errors"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/ra"
	"paramra/internal/simplified"
)

// incHalt increments c0 n times and halts.
func incHalt(n int) *Machine {
	m := &Machine{}
	for i := 0; i < n; i++ {
		m.States = append(m.States, Instr{Kind: OpInc, Counter: 0, Next: i + 1})
	}
	m.States = append(m.States, Instr{Kind: OpHalt})
	return m
}

// upDown increments c0 n times, then decrements to zero, then halts.
func upDown(n int) *Machine {
	m := &Machine{}
	for i := 0; i < n; i++ {
		m.States = append(m.States, Instr{Kind: OpInc, Counter: 0, Next: i + 1})
	}
	loop := len(m.States)
	halt := loop + 1
	m.States = append(m.States, Instr{Kind: OpDecJZ, Counter: 0, Next: loop, Zero: halt})
	m.States = append(m.States, Instr{Kind: OpHalt})
	return m
}

// forever loops without halting: inc then dec, back and forth.
func forever() *Machine {
	return &Machine{States: []Instr{
		{Kind: OpInc, Counter: 0, Next: 1},
		{Kind: OpDecJZ, Counter: 0, Next: 0, Zero: 0},
	}}
}

func TestSimulator(t *testing.T) {
	res := incHalt(3).Run(100)
	if !res.Halted || res.Steps != 3 || res.MaxCounter != 3 || res.Final.C0 != 3 {
		t.Errorf("incHalt(3): %+v", res)
	}
	res = upDown(2).Run(100)
	if !res.Halted || res.Final.C0 != 0 {
		t.Errorf("upDown(2): %+v", res)
	}
	if res.Steps != 2+3 { // 2 incs + 2 decs + 1 zero-test
		t.Errorf("upDown(2) steps = %d, want 5", res.Steps)
	}
	res = forever().Run(50)
	if res.Halted {
		t.Error("forever halted")
	}
	if res.Steps != 50 {
		t.Errorf("forever steps = %d", res.Steps)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Machine{
		{},
		{States: []Instr{{Kind: OpInc, Counter: 2, Next: 0}}},
		{States: []Instr{{Kind: OpInc, Counter: 0, Next: 5}}},
		{States: []Instr{{Kind: OpDecJZ, Counter: 0, Next: 0, Zero: 9}}},
		{States: []Instr{{Kind: OpKind(42)}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("machine %d accepted", i)
		}
	}
	if err := incHalt(2).Validate(); err != nil {
		t.Errorf("good machine rejected: %v", err)
	}
}

func TestStepsToHalt(t *testing.T) {
	if got := StepsToHalt(incHalt(3), 5, 100); got != 3 {
		t.Errorf("incHalt steps = %d, want 3", got)
	}
	if got := StepsToHalt(incHalt(3), 3, 100); got != -1 {
		t.Errorf("bound 3 should block the third increment, got %d", got)
	}
	if got := StepsToHalt(forever(), 5, 50); got != -1 {
		t.Errorf("forever halts? %d", got)
	}
}

// TestTheorem11ClassRejection: the generated systems use CAS in env
// threads, so they fall outside the decidable class and the parameterized
// verifier must refuse them.
func TestTheorem11ClassRejection(t *testing.T) {
	sys, err := Reduce(incHalt(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	c := lang.Classify(sys)
	if c.Env.NoCAS || !c.Env.Acyclic {
		t.Fatalf("reduction should be env(acyc) with CAS: %s", c)
	}
	if c.Decidable() {
		t.Error("env CAS system classified as decidable")
	}
	if _, err := simplified.New(sys, simplified.Options{}); !errors.Is(err, simplified.ErrEnvCAS) {
		t.Errorf("verifier should reject env CAS: %v", err)
	}
}

// exploreReduction explores the concrete instance with n env threads.
func exploreReduction(t *testing.T, m *Machine, c, n int) bool {
	t.Helper()
	sys, err := Reduce(m, c)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ra.NewInstance(sys, n)
	if err != nil {
		t.Fatal(err)
	}
	res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 3_000_000})
	if !res.Unsafe && !res.Complete {
		t.Fatalf("exploration incomplete at n=%d", n)
	}
	return res.Unsafe
}

// TestTheorem11BoundedSimulation validates the construction on concrete
// instances: with k = StepsToHalt threads driving the CAS chain plus one
// observer, the halting machine's system is unsafe; with fewer threads it
// is safe (each thread performs exactly one step).
func TestTheorem11BoundedSimulation(t *testing.T) {
	m := incHalt(2)
	const bound = 3
	k := StepsToHalt(m, bound, 100) // 2 steps
	if k != 2 {
		t.Fatalf("k = %d", k)
	}
	if exploreReduction(t, m, bound, k) {
		t.Error("k threads (no observer) should not reach the assert")
	}
	if !exploreReduction(t, m, bound, k+1) {
		t.Error("k+1 threads should simulate to halt and assert")
	}
}

// TestTheorem11NonHalting: a machine that cannot halt under the counter
// bound yields a safe system for any thread count we can check.
func TestTheorem11NonHalting(t *testing.T) {
	m := forever()
	for n := 1; n <= 3; n++ {
		if exploreReduction(t, m, 2, n) {
			t.Errorf("non-halting machine asserted with n=%d", n)
		}
	}
}

// TestTheorem11CounterBound: incHalt(3) needs counters to reach 3; with
// bound 3 the simulation is stuck, with bound 4 it halts.
func TestTheorem11CounterBound(t *testing.T) {
	m := incHalt(3)
	if exploreReduction(t, m, 3, 4) {
		t.Error("counter bound 3 should block halting")
	}
	if !exploreReduction(t, m, 4, 4) {
		t.Error("counter bound 4 should allow halting with 4 threads")
	}
}

// TestTheorem11ChainLinearized: the CAS chain admits no forks — two
// distinct runs cannot both complete. upDown(1) halts in 3 steps; the
// observer must see exactly the final config, and the intermediate config
// values must never coexist on separate chains.
func TestTheorem11ChainLinearized(t *testing.T) {
	m := upDown(1)
	k := StepsToHalt(m, 2, 100)
	if k != 3 {
		t.Fatalf("k = %d", k)
	}
	if !exploreReduction(t, m, 2, k+1) {
		t.Error("upDown(1) should assert with k+1 threads")
	}
	if exploreReduction(t, m, 2, k) {
		t.Error("k threads should be insufficient (one step each plus observer)")
	}
}
