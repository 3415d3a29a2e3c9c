package ra

import (
	"context"
	"testing"

	"paramra/internal/lang"
)

// explore builds an instance with nEnv env replicas and exhaustively
// explores it.
func explore(t *testing.T, src string, nEnv int) Result {
	t.Helper()
	sys, err := lang.ParseSystem(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	inst, err := NewInstance(sys, nEnv)
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	res := inst.ExploreContext(context.Background(), Limits{MaxStates: 2_000_000})
	if !res.Unsafe && !res.Complete {
		t.Fatalf("exploration hit limits without verdict (states=%d)", res.States)
	}
	return res
}

// TestMessagePassingForbidden checks the defining guarantee of RA ("never
// read overwritten values"): after reading the y=1 flag the consumer cannot
// read the stale x=0.
func TestMessagePassingForbidden(t *testing.T) {
	res := explore(t, `
system mp { vars x y; domain 2; dis t1; dis t2 }
thread t1 { store x 1; store y 1 }
thread t2 {
  regs r1 r2
  r1 = load y; assume r1 == 1
  r2 = load x; assume r2 == 0
  assert false
}
`, 0)
	if res.Unsafe {
		t.Fatalf("MP weak behaviour observed — forbidden under RA:\n%s", FormatWitness(res.Witness))
	}
}

// TestMessagePassingPositive checks the allowed outcome r1==1, r2==1 is
// reachable (sanity that the semantics is not vacuously safe).
func TestMessagePassingPositive(t *testing.T) {
	res := explore(t, `
system mp { vars x y; domain 2; dis t1; dis t2 }
thread t1 { store x 1; store y 1 }
thread t2 {
  regs r1 r2
  r1 = load y; assume r1 == 1
  r2 = load x; assume r2 == 1
  assert false
}
`, 0)
	if !res.Unsafe {
		t.Fatal("MP strong outcome unreachable — semantics too strict")
	}
}

// TestStoreBufferingAllowed checks that the SB weak behaviour (both loads
// read the initial value) is observable under RA.
func TestStoreBufferingAllowed(t *testing.T) {
	res := explore(t, `
system sb { vars x y a; domain 2; dis t1; dis t2 }
thread t1 {
  regs r1
  store x 1
  r1 = load y; assume r1 == 0
  store a 1
}
thread t2 {
  regs r2 r3
  store y 1
  r2 = load x; assume r2 == 0
  r3 = load a; assume r3 == 1
  assert false
}
`, 0)
	if !res.Unsafe {
		t.Fatal("SB weak behaviour (r1=r2=0) must be allowed under RA")
	}
}

// TestLoadBufferingForbidden checks the LB out-of-thin-air cycle is not
// producible by the operational semantics.
func TestLoadBufferingForbidden(t *testing.T) {
	res := explore(t, `
system lb { vars x y; domain 2; dis t1; dis t2 }
thread t1 {
  regs r1
  r1 = load y; assume r1 == 1
  store x 1
  assert false
}
thread t2 {
  regs r2
  r2 = load x; assume r2 == 1
  store y 1
}
`, 0)
	if res.Unsafe {
		t.Fatalf("LB cycle observed — impossible under RA:\n%s", FormatWitness(res.Witness))
	}
}

// TestCoherenceCoRR2 checks that two readers cannot observe the two writes
// to the same variable in opposite orders (per-location coherence).
func TestCoherenceCoRR2(t *testing.T) {
	res := explore(t, `
system corr2 { vars x f; domain 3; dis w1; dis w2; dis t3; dis t4 }
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
`, 0)
	if res.Unsafe {
		t.Fatalf("CoRR2 violation — coherence broken:\n%s", FormatWitness(res.Witness))
	}
}

// TestCoherenceSameOrderAllowed is the positive variant of CoRR2: both
// readers observing the same order is fine.
func TestCoherenceSameOrderAllowed(t *testing.T) {
	res := explore(t, `
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
  c = load x; assume c == 1
  d = load x; assume d == 2
  r = load f; assume r == 1
  assert false
}
`, 0)
	if !res.Unsafe {
		t.Fatal("same-order observation should be reachable")
	}
}

// TestCASMutualExclusion checks that two cas(x,0,1) cannot both succeed.
func TestCASMutualExclusion(t *testing.T) {
	res := explore(t, `
system casmx { vars x a; domain 2; dis t1; dis t2 }
thread t1 { cas x 0 1; store a 1 }
thread t2 {
  regs r
  cas x 0 1
  r = load a; assume r == 1
  assert false
}
`, 0)
	if res.Unsafe {
		t.Fatalf("two successful CAS(0→1) on one variable:\n%s", FormatWitness(res.Witness))
	}
}

// TestCASSingleSucceeds checks a lone CAS succeeds and its effect is
// visible.
func TestCASSingleSucceeds(t *testing.T) {
	res := explore(t, `
system cas1 { vars x; domain 2; dis t1; dis t2 }
thread t1 { cas x 0 1 }
thread t2 {
  regs r
  r = load x; assume r == 1
  assert false
}
`, 0)
	if !res.Unsafe {
		t.Fatal("CAS effect invisible")
	}
}

// TestCASAdjacencySealsGap checks that after cas(x,0,1), a store cannot be
// ordered between the 0 and the 1: a reader that observed the CAS result 1
// can never read a 2 that is modification-ordered before the 1, so reading
// 1 then 2 then 1 again is impossible... the directly testable consequence
// is that a reader cannot observe 0, then 2, then 1 if 2 was stored after
// the CAS sealed the gap and the CAS read the 0 directly.
func TestCASAdjacencySealsGap(t *testing.T) {
	// t1 performs the CAS; t2 stores 2; t3 tries to observe 0 → 2 → 1,
	// which would require 2 to sit between 0 and 1 in modification order —
	// exactly the sealed gap.
	res := explore(t, `
system seal { vars x; domain 3; dis t1; dis t2; dis t3 }
thread t1 { cas x 0 1 }
thread t2 { store x 2 }
thread t3 {
  regs a b c
  a = load x; assume a == 0
  b = load x; assume b == 2
  c = load x; assume c == 1
  assert false
}
`, 0)
	if res.Unsafe {
		t.Fatalf("observed a store between CAS-adjacent timestamps:\n%s", FormatWitness(res.Witness))
	}
}

// TestCASAdjacencyOrderAfterAllowed is the positive twin: observing
// 0 → 1 → 2 is allowed (2 ordered after the CAS pair).
func TestCASAdjacencyOrderAfterAllowed(t *testing.T) {
	res := explore(t, `
system seal2 { vars x; domain 3; dis t1; dis t2; dis t3 }
thread t1 { cas x 0 1 }
thread t2 { store x 2 }
thread t3 {
  regs a b c
  a = load x; assume a == 0
  b = load x; assume b == 1
  c = load x; assume c == 2
  assert false
}
`, 0)
	if !res.Unsafe {
		t.Fatal("0→1→2 should be observable")
	}
}

// TestFigure1ProducerConsumer reproduces the execution snippet of Figure 1:
// one producer and one consumer; the consumer reads the producer's x write.
func TestFigure1ProducerConsumer(t *testing.T) {
	res := explore(t, `
system fig1 { vars x y; domain 8; dis producer; dis consumer }
thread producer {
  regs r
  r = load y; assume r == 1
  store x (r + 3)   # writes 4, mirroring the paper's value
}
thread consumer {
  regs s
  store y 1
  s = load x
  assume s == 4
  assert false
}
`, 0)
	if !res.Unsafe {
		t.Fatal("Figure 1 execution should be reproducible")
	}
	if len(res.Witness) == 0 || !res.Witness[len(res.Witness)-1].Assert {
		t.Fatalf("witness malformed: %v", res.Witness)
	}
}

// TestEnvReplication checks that env replicas behave like dis copies: one
// producer is enough to deliver the value.
func TestEnvReplication(t *testing.T) {
	src := `
system param { vars x y; domain 4; env producer; dis consumer }
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
`
	if res := explore(t, src, 0); res.Unsafe {
		t.Fatal("no env threads: violation should be unreachable")
	}
	if res := explore(t, src, 1); !res.Unsafe {
		t.Fatal("one env thread should suffice")
	}
	if res := explore(t, src, 2); !res.Unsafe {
		t.Fatal("two env threads should also violate (monotonicity)")
	}
}
