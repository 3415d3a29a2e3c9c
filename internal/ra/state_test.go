package ra

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"paramra/internal/lang"
)

func TestViewLattice(t *testing.T) {
	mk := func(a, b, c int8) View {
		return View{int(a&7) + 8, int(b&7) + 8, int(c&7) + 8} // non-negative
	}
	// Join is commutative, associative, idempotent, and an upper bound.
	comm := func(a1, a2, a3, b1, b2, b3 int8) bool {
		v, w := mk(a1, a2, a3), mk(b1, b2, b3)
		return v.Join(w).Eq(w.Join(v))
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("join not commutative: %v", err)
	}
	assoc := func(a1, a2, a3, b1, b2, b3, c1, c2, c3 int8) bool {
		u, v, w := mk(a1, a2, a3), mk(b1, b2, b3), mk(c1, c2, c3)
		return u.Join(v).Join(w).Eq(u.Join(v.Join(w)))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("join not associative: %v", err)
	}
	idem := func(a1, a2, a3 int8) bool {
		v := mk(a1, a2, a3)
		return v.Join(v).Eq(v)
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Errorf("join not idempotent: %v", err)
	}
	ub := func(a1, a2, a3, b1, b2, b3 int8) bool {
		v, w := mk(a1, a2, a3), mk(b1, b2, b3)
		j := v.Join(w)
		return v.Leq(j) && w.Leq(j)
	}
	if err := quick.Check(ub, nil); err != nil {
		t.Errorf("join not an upper bound: %v", err)
	}
}

func TestViewLeqAntisymmetric(t *testing.T) {
	v := View{1, 2}
	w := View{1, 2}
	if !v.Leq(w) || !w.Leq(v) || !v.Eq(w) {
		t.Error("equal views must be mutually ≤")
	}
	w[1] = 3
	if !v.Leq(w) || w.Leq(v) {
		t.Error("strictly larger view ordering wrong")
	}
}

func TestStateCloneIndependence(t *testing.T) {
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
	c.Threads[0].View[0] = 9
	c.Mem[0][0].Val = 1
	if s.Threads[0].View[0] == 9 || s.Mem[0][0].Val == 1 {
		t.Error("Clone shares storage with original")
	}
	if s.Key() == c.Key() {
		t.Error("keys of distinct states collide")
	}
}

// checkInvariants verifies the structural invariants of the positional
// timestamp representation.
func checkInvariants(t *testing.T, s *State) {
	t.Helper()
	for v, list := range s.Mem {
		if len(list) == 0 {
			t.Fatalf("variable %d lost its initial message", v)
		}
		for p, m := range list {
			if got := m.View[v]; got != p {
				t.Fatalf("message (var %d, pos %d) has self view %d", v, p, got)
			}
			for v2, t2 := range m.View {
				if t2 < 0 || t2 >= len(s.Mem[v2]) {
					t.Fatalf("message view out of range: var %d pos %d view[%d]=%d", v, p, v2, t2)
				}
			}
			if m.Sealed && p == len(list)-1 {
				t.Fatalf("sealed gap after the last message (var %d pos %d)", v, p)
			}
		}
	}
	for ti, th := range s.Threads {
		for v, p := range th.View {
			if p < 0 || p >= len(s.Mem[v]) {
				t.Fatalf("thread %d view out of range: view[%d]=%d", ti, v, p)
			}
		}
	}
}

// TestRandomWalkInvariants drives random computations of a program mixing
// all operation kinds and checks representation invariants at every step.
func TestRandomWalkInvariants(t *testing.T) {
	sys := lang.MustParseSystem(`
system rw { vars x y z; domain 4; env worker }
thread worker {
  regs r s
  loop {
    choice { r = load x } or { r = load y } or { s = load z }
    choice { store x (r + 1) } or { store y (s + 2) } or { store z 1 }
    choice { cas z 1 2 } or { cas z 2 1 } or { skip }
    choice { assume r <= s } or { assume r > s }
  }
}
`)
	inst, err := NewInstance(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		s := inst.InitState()
		for step := 0; step < 40; step++ {
			succs := inst.Successors(s)
			if len(succs) == 0 {
				break
			}
			s = succs[rng.Intn(len(succs))].State
			checkInvariants(t, s)
		}
	}
}

// TestRandomWalkKeyStability: Key must be injective on the walk states we
// can distinguish semantically — at minimum, cloning preserves the key and
// stepping to a state with different memory changes it.
func TestRandomWalkKeyStability(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 3; dis t }
thread t { store x 1; store x 2 }
`)
	inst, err := NewInstance(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.InitState()
	if s.Key() != s.Clone().Key() {
		t.Error("clone changed key")
	}
	succs := inst.Successors(s)
	if len(succs) != 1 {
		t.Fatalf("expected 1 successor (single store position), got %d", len(succs))
	}
	if succs[0].State.Key() == s.Key() {
		t.Error("store did not change key")
	}
}

func TestStoreInsertionPositions(t *testing.T) {
	// After two independent stores to x by different threads, the second
	// store (by a thread with view 0) can insert before or after the first:
	// expect both interleavings to yield 2-position choices at some point.
	sys := lang.MustParseSystem(`
system s { vars x; domain 4; dis a; dis b }
thread a { store x 1 }
thread b { store x 2 }
`)
	inst, err := NewInstance(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.InitState()
	succs := inst.Successors(s)
	if len(succs) != 2 { // one store each, single position available
		t.Fatalf("initial successors = %d, want 2", len(succs))
	}
	// Take thread a's store, then thread b should have two insertion points.
	var afterA *State
	for _, sc := range succs {
		if sc.Event.Thread == 0 {
			afterA = sc.State
		}
	}
	succs2 := inst.Successors(afterA)
	if len(succs2) != 2 {
		t.Fatalf("after a's store, b should have 2 insertion positions, got %d", len(succs2))
	}
	// The two resulting modification orders must differ.
	k1, k2 := succs2[0].State.Key(), succs2[1].State.Key()
	if k1 == k2 {
		t.Error("distinct insertion positions produced identical states")
	}
}

func TestInstanceErrors(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 2; dis t }
thread t { skip }
`)
	if _, err := NewInstance(sys, -1); err == nil {
		t.Error("negative env count accepted")
	}
	if _, err := NewInstance(sys, 2); err == nil {
		t.Error("env replicas without env program accepted")
	}
	bad := &lang.System{Name: "bad"}
	if _, err := NewInstance(bad, 0); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestExploreLimits(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 8; env w }
thread w { regs r; loop { r = load x; store x (r + 1) } }
`)
	inst, err := NewInstance(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := inst.ExploreContext(context.Background(), Limits{MaxStates: 100})
	if res.Complete {
		t.Error("unbounded counter instance reported complete under a 100-state cap")
	}
	if res.States > 100 {
		t.Errorf("state cap exceeded: %d", res.States)
	}
}
