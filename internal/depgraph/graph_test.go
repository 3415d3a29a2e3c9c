package depgraph

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// violationFor runs the verifier and returns the violation.
func violationFor(t *testing.T, src string, goal *simplified.Goal) (*lang.System, *simplified.Violation) {
	t.Helper()
	sys := lang.MustParseSystem(src)
	v, err := simplified.New(sys, simplified.Options{Goal: goal})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := v.VerifyContext(context.Background())
	if !res.Unsafe {
		t.Fatalf("expected unsafe/goal-generatable system")
	}
	return sys, res.Violation
}

func TestGraphProdCons(t *testing.T) {
	sys, viol := violationFor(t, `
system s { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
`, nil)
	g, err := FromViolation(sys, viol)
	if err != nil {
		t.Fatal(err)
	}
	goal := g.Nodes[g.Goal]
	if goal.Kind != GoalNode {
		t.Fatalf("goal kind = %v", goal.Kind)
	}
	// The consumer read exactly one env message (x=2).
	if len(goal.Deps) != 1 {
		t.Fatalf("goal deps = %v", goal.Deps)
	}
	var envKey string
	for k := range goal.Deps {
		envKey = k
	}
	env := g.Nodes[envKey]
	if env.Kind != EnvMsg || env.Val != 2 {
		t.Fatalf("expected env x=2 message, got %+v", env)
	}
	// The env message depends on the dis message y=1.
	if len(env.Deps) != 1 {
		t.Fatalf("env deps = %v", env.Deps)
	}
	for k := range env.Deps {
		d := g.Nodes[k]
		if d.Kind != DisMsg || d.Val != 1 {
			t.Fatalf("expected dis y=1 dependency, got %+v", d)
		}
		// The dis y=1 message was stored before any read.
		if len(d.Deps) != 0 {
			t.Fatalf("dis y=1 should have no dependencies: %v", d.Deps)
		}
	}
	// Heights: dis y=1 at 0, env x=2 at 1, goal at 2.
	if h := g.HeightOf(g.Goal); h != 2 {
		t.Errorf("goal height = %d, want 2", h)
	}
	// Cost: goal is dis-like (assert by consumer) = rc·cost(env) = 1·(1+0) = 1.
	if c := g.CostGoal(); c != 1 {
		t.Errorf("cost = %d, want 1 (one env thread suffices)", c)
	}
	if !g.Compact() {
		t.Errorf("tiny graph should satisfy the Q0 bounds (Q0=%d, h=%d, fanin=%d)",
			g.Q0, g.Height(), g.MaxFanIn())
	}
}

// TestFigure5CostEqualsLoopBound reproduces Figure 5: the cost of the goal
// message equals the consumer's loop bound z.
func TestFigure5CostEqualsLoopBound(t *testing.T) {
	for _, z := range []int{1, 2, 3, 5} {
		loads := strings.Repeat("  s = load x; assume s == 1\n", z)
		src := fmt.Sprintf(`
system fig5 { vars x y; domain 3; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 1 }
thread consumer {
  regs s
  store y 1
%s  store y 2
}
`, loads)
		sys := lang.MustParseSystem(src)
		yv, _ := sys.VarByName("y")
		sysCopy, viol := violationFor(t, src, &simplified.Goal{Var: yv, Val: 2})
		g, err := FromViolation(sysCopy, viol)
		if err != nil {
			t.Fatal(err)
		}
		if c := g.CostGoal(); c != int64(z) {
			t.Errorf("z=%d: cost(msg#) = %d, want %d\n%s", z, c, z, g)
		}
	}
}

// TestFigure4DependencyAlternatives builds the two-env-thread snippet of
// Figure 4's flavour: the message (y,2) can be generated after reading
// (x,1); genthread is whichever env instance got there first, and the
// dependency is on the (x,1) env message.
func TestFigure4DependencyAlternatives(t *testing.T) {
	src := `
system fig4 { vars x y; domain 3; env worker }
thread worker {
  regs r
  choice {
    store x 1
  } or {
    r = load x; assume r == 1
    store y 2
  }
}
`
	sys := lang.MustParseSystem(src)
	yv, _ := sys.VarByName("y")
	_, viol := violationFor(t, src, &simplified.Goal{Var: yv, Val: 2})
	g, err := FromViolation(sys, viol)
	if err != nil {
		t.Fatal(err)
	}
	goal := g.Nodes[g.Goal]
	if goal.Kind != EnvMsg || goal.Val != 2 {
		t.Fatalf("goal node = %+v", goal)
	}
	if len(goal.Deps) != 1 {
		t.Fatalf("goal deps = %v", goal.Deps)
	}
	for k, rc := range goal.Deps {
		n := g.Nodes[k]
		if n.Kind != EnvMsg || n.Var != 0 || n.Val != 1 || rc != 1 {
			t.Fatalf("expected single read of env (x,1): %+v x%d", n, rc)
		}
	}
	// cost(y,2) = 1 + cost(x,1) = 1 + 1 = 2 — two env threads.
	if c := g.CostGoal(); c != 2 {
		t.Errorf("cost = %d, want 2", c)
	}
}

func TestCompactionBoundsLongChain(t *testing.T) {
	// A chain x: 0→1→2→…: each env store reads the previous value. With
	// domain d the chain revisits (var,value) signatures, so the compacted
	// graph must satisfy the Q0 bounds even for deep originals.
	src := `
system chain { vars x; domain 3; env inc; dis watcher }
thread inc { regs r; r = load x; store x (r + 1) }
thread watcher { regs s; s = load x; assume s == 2; assert false }
`
	sys, viol := violationFor(t, src, nil)
	g, err := FromViolation(sys, viol)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Compacted()
	if c.Height() > c.Q0 {
		t.Errorf("compacted height %d > Q0 %d", c.Height(), c.Q0)
	}
	if c.MaxFanIn() > c.Q0 {
		t.Errorf("compacted fan-in %d > Q0 %d", c.MaxFanIn(), c.Q0)
	}
	if !c.Compact() {
		t.Error("Compacted() result not compact")
	}
	// The compacted graph preserves the goal.
	if c.Goal != g.Goal {
		t.Error("compaction lost the goal")
	}
	// Compaction must not create cycles: every height is finite and edges
	// strictly decrease original heights, so goal height ≤ node count.
	if c.HeightOf(c.Goal) > len(c.Nodes) {
		t.Error("compacted graph has an implausible height (cycle?)")
	}
}

func TestQ0Formula(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x y; domain 3; env e; dis d }
thread e { skip }
thread d { store x 1 }
`)
	disSize := lang.Compile(sys.Dis[0]).NumNodes
	if got, want := Q0Of(sys), 3*2+disSize; got != want {
		t.Errorf("Q0 = %d, want %d", got, want)
	}
}

func TestFromViolationNil(t *testing.T) {
	if _, err := FromViolation(&lang.System{}, nil); err == nil {
		t.Error("nil violation accepted")
	}
}

func TestGraphStringDeterministic(t *testing.T) {
	sys, viol := violationFor(t, `
system s { vars x; domain 2; env w; dis d }
thread w { store x 1 }
thread d { regs r; r = load x; assume r == 1; assert false }
`, nil)
	g, err := FromViolation(sys, viol)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := g.String(), g.String()
	if s1 != s2 || s1 == "" {
		t.Error("String not deterministic or empty")
	}
	if !strings.Contains(s1, "<- goal") {
		t.Errorf("goal marker missing:\n%s", s1)
	}
}
