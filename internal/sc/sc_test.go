package sc

import (
	"context"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/ra"
)

func exploreSC(t *testing.T, src string, nEnv int) Result {
	t.Helper()
	sys := lang.MustParseSystem(src)
	inst, err := NewInstance(sys, nEnv)
	if err != nil {
		t.Fatal(err)
	}
	res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 1_000_000})
	if !res.Unsafe && !res.Complete {
		t.Fatal("SC exploration incomplete")
	}
	return res
}

const sbSrc = `
system sb { vars x y a; domain 2; dis t1; dis t2 }
thread t1 { regs r1; store x 1; r1 = load y; assume r1 == 0; store a 1 }
thread t2 { regs r2 r3; store y 1; r2 = load x; assume r2 == 0; r3 = load a; assume r3 == 1; assert false }
`

// TestSBForbiddenUnderSC: the store-buffering weak outcome must be
// unreachable under sequential consistency.
func TestSBForbiddenUnderSC(t *testing.T) {
	if exploreSC(t, sbSrc, 0).Unsafe {
		t.Fatal("SB weak behaviour observed under SC")
	}
}

// TestSBRobustnessGap: the same program is unsafe under RA — the robustness
// comparator must flag the weak behaviour.
func TestSBRobustnessGap(t *testing.T) {
	sys := lang.MustParseSystem(sbSrc)
	rob, err := CompareRobustness(sys, 0, ra.Limits{MaxStates: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !rob.Complete {
		t.Fatal("comparison incomplete")
	}
	if !rob.WeakBehaviour() {
		t.Fatalf("SB should be RA-only unsafe: %+v", rob)
	}
}

// TestSCBasicInterleaving: SC still has interleavings — a race on x can be
// observed in either order.
func TestSCBasicInterleaving(t *testing.T) {
	src := `
system r { vars x; domain 3; dis w1; dis w2; dis obs }
thread w1 { store x 1 }
thread w2 { store x 2 }
thread obs { regs a; a = load x; assume a == %d; assert false }
`
	for _, v := range []int{1, 2} {
		s := lang.MustParseSystem(replaceInt(src, v))
		inst, err := NewInstance(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 100_000}).Unsafe {
			t.Errorf("final value %d unobservable under SC", v)
		}
	}
}

func replaceInt(format string, v int) string {
	out := ""
	for i := 0; i < len(format); i++ {
		if format[i] == '%' && i+1 < len(format) && format[i+1] == 'd' {
			out += string(rune('0' + v))
			i++
			continue
		}
		out += string(format[i])
	}
	return out
}

// TestSCLoadSeesLatestStoreOnly: under SC a reader cannot see a stale value
// after observing a newer one (single-copy memory).
func TestSCLoadSeesLatestStoreOnly(t *testing.T) {
	res := exploreSC(t, `
system stale { vars x; domain 3; dis w; dis r }
thread w { store x 1; store x 2 }
thread r {
  regs a b
  a = load x; assume a == 2
  b = load x; assume b == 1
  assert false
}
`, 0)
	if res.Unsafe {
		t.Fatal("stale read under SC")
	}
}

// TestSCCAS: compare-and-swap under SC — mutual exclusion must hold, and
// the value transition must be observable.
func TestSCCAS(t *testing.T) {
	res := exploreSC(t, `
system cas { vars l a; domain 2; dis t1; dis t2 }
thread t1 { cas l 0 1; store a 1 }
thread t2 { regs r; cas l 0 1; r = load a; assume r == 1; assert false }
`, 0)
	if res.Unsafe {
		t.Fatal("two SC CAS(0→1) both succeeded")
	}
	res = exploreSC(t, `
system cas2 { vars l; domain 2; dis t1; dis t2 }
thread t1 { cas l 0 1 }
thread t2 { regs r; r = load l; assume r == 1; assert false }
`, 0)
	if !res.Unsafe {
		t.Fatal("SC CAS effect invisible")
	}
}

// TestSCSubsumedByRA: anything reachable under SC must be reachable under
// RA (SC executions are RA executions that always read maximal timestamps).
func TestSCSubsumedByRA(t *testing.T) {
	srcs := []string{
		sbSrc,
		`
system mp { vars x y; domain 2; dis t1; dis t2 }
thread t1 { store x 1; store y 1 }
thread t2 { regs a b; a = load y; assume a == 1; b = load x; assume b == 1; assert false }
`,
		`
system chain { vars x; domain 4; env inc; dis w }
thread inc { regs r; r = load x; store x (r + 1) }
thread w { regs s; s = load x; assume s == 2; assert false }
`,
	}
	for i, src := range srcs {
		sys := lang.MustParseSystem(src)
		for n := 0; n <= 2; n++ {
			if sys.Env == nil && n > 0 {
				continue
			}
			rob, err := CompareRobustness(sys, n, ra.Limits{MaxStates: 500_000})
			if err != nil {
				t.Fatal(err)
			}
			if !rob.Complete {
				continue
			}
			if rob.SCUnsafe && !rob.RAUnsafe {
				t.Errorf("case %d n=%d: SC-unsafe but RA-safe — SC not subsumed", i, n)
			}
		}
	}
}

// TestCorpusRobustnessClassification: the broken mutexes are exactly
// RA-only unsafe (non-robust); their violations disappear under SC.
func TestCorpusRobustnessClassification(t *testing.T) {
	nonRobust := []string{sbSrc}
	for _, src := range nonRobust {
		sys := lang.MustParseSystem(src)
		rob, err := CompareRobustness(sys, 0, ra.Limits{MaxStates: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if !rob.WeakBehaviour() {
			t.Errorf("expected weak behaviour: %+v", rob)
		}
	}
}

func TestSCStateKeyAndClone(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 2; dis t }
thread t { store x 1 }
`)
	inst, err := NewInstance(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.InitState()
	c := s.Clone()
	c.Mem[0] = 1
	c.Threads[0].Regs = append(c.Threads[0].Regs, 0) // no shared backing
	if s.Mem[0] == 1 {
		t.Error("clone shares memory")
	}
	if s.Key() == c.Key() {
		t.Error("distinct states share a key")
	}
}
