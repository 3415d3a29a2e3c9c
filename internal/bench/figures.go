package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"paramra/internal/depgraph"
	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// fig3System builds the Figure 3 system: unboundedly many producers chain
// increasing values through x; the consumer (dis) loops z times, reading an
// ascending sequence, modelled loop-free by unrolling.
func fig3System(z int) *lang.System {
	var b strings.Builder
	fmt.Fprintf(&b, `
system fig3 { vars x y; domain %d; env producer; dis consumer }
thread producer {
  regs r s
  r = load y; assume r == 1
  s = load x
  store x (s + 1)
}
thread consumer {
  regs t
  store y 1
`, z+2)
	for i := 1; i <= z; i++ {
		fmt.Fprintf(&b, "  t = load x; assume t == %d\n", i)
	}
	b.WriteString("  assert false\n}\n")
	return lang.MustParseSystem(b.String())
}

// Fig3Row is one data point of the Figure 3 reproduction.
type Fig3Row struct {
	Z           int
	Unsafe      bool
	MacroStates int
	EnvConfigs  int
	EnvMsgs     int
	CostBound   int64
	Elapsed     time.Duration
}

// Fig3 reproduces Figure 3's phenomenon: the consumer can iterate its loop
// arbitrarily often under the simplified semantics, with the timestamp
// abstraction replacing the l distinct producers by reusable ⁺-timestamps.
// The §4.3 cost bound on the needed env threads grows with z.
func Fig3(maxZ int) ([]Fig3Row, error) {
	var out []Fig3Row
	for z := 1; z <= maxZ; z++ {
		sys := fig3System(z)
		v, err := simplified.New(sys, simplified.Options{})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res := v.VerifyContext(context.TODO())
		row := Fig3Row{
			Z: z, Unsafe: res.Unsafe,
			MacroStates: res.Stats.MacroStates,
			EnvConfigs:  res.Stats.EnvConfigs,
			EnvMsgs:     res.Stats.EnvMsgs,
			Elapsed:     time.Since(start),
		}
		if res.Unsafe {
			g, err := depgraph.FromViolation(sys, res.Violation)
			if err != nil {
				return nil, err
			}
			row.CostBound = g.CostGoal()
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig3Table formats the Figure 3 series.
func Fig3Table(rows []Fig3Row) *Table {
	t := &Table{
		Title:   "Figure 3: consumer loop bound z vs simplified-semantics verification",
		Columns: []string{"z", "unsafe", "macro-states", "env-cfgs", "env-msgs", "cost bound (#env)", "time"},
	}
	for _, r := range rows {
		t.AddRow(r.Z, r.Unsafe, r.MacroStates, r.EnvConfigs, r.EnvMsgs, r.CostBound,
			r.Elapsed.Round(time.Microsecond))
	}
	return t
}

// Fig4 renders the dependency graph of the Figure 4-style snippet, with the
// genthread resolution chosen by the first derivation found.
func Fig4() (string, error) {
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
	v, err := simplified.New(sys, simplified.Options{Goal: &simplified.Goal{Var: yv, Val: 2}})
	if err != nil {
		return "", err
	}
	res := v.VerifyContext(context.TODO())
	if !res.Unsafe {
		return "", fmt.Errorf("fig4: goal message not generatable")
	}
	g, err := depgraph.FromViolation(sys, res.Violation)
	if err != nil {
		return "", err
	}
	return "Figure 4: dependency graph for the two-env-thread snippet\n" +
		"(genthread((y,2)) is the first env instance to store it; by symmetry\n" +
		"any other instance yields the isomorphic second graph of the figure)\n\n" +
		g.String(), nil
}

// Fig5Row is one data point of the Figure 5 reproduction.
type Fig5Row struct {
	Z         int
	CostBound int64
	Height    int
	MaxFanIn  int
	Q0        int
}

// Fig5 reproduces the cost-annotated dependency graph: the cost of the goal
// message equals the consumer's loop bound z.
func Fig5(maxZ int) ([]Fig5Row, error) {
	var out []Fig5Row
	for z := 1; z <= maxZ; z++ {
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
		v, err := simplified.New(sys, simplified.Options{Goal: &simplified.Goal{Var: yv, Val: 2}})
		if err != nil {
			return nil, err
		}
		res := v.VerifyContext(context.TODO())
		if !res.Unsafe {
			return nil, fmt.Errorf("fig5 z=%d: goal not generated", z)
		}
		g, err := depgraph.FromViolation(sys, res.Violation)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig5Row{
			Z: z, CostBound: g.CostGoal(), Height: g.Height(), MaxFanIn: g.MaxFanIn(), Q0: g.Q0,
		})
	}
	return out, nil
}

// Fig5Table formats the Figure 5 series.
func Fig5Table(rows []Fig5Row) *Table {
	t := &Table{
		Title:   "Figure 5: cost-annotated dependency graph (cost(msg#) = z)",
		Columns: []string{"z", "cost(msg#)", "height", "max fan-in", "Q0"},
	}
	for _, r := range rows {
		t.AddRow(r.Z, r.CostBound, r.Height, r.MaxFanIn, r.Q0)
	}
	return t
}
