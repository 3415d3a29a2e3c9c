package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"paramra/internal/lang"
	"paramra/internal/simplified"
	"paramra/internal/tqbf"
)

// ScalingRow is one data point of a scaling series.
type ScalingRow struct {
	Family  string
	Param   int
	Unsafe  bool
	Macro   int
	EnvCfgs int
	EnvMsgs int
	Elapsed time.Duration
}

// ScalingExperiment produces the growth curves for the PSPACE cell of
// Table 1 along three axes: the data-domain size (value-chain depth), the
// TQBF quantifier depth, and the number of dis threads.
func ScalingExperiment() ([]ScalingRow, error) {
	var out []ScalingRow

	run := func(family string, param int, sys *lang.System) error {
		v, err := simplified.New(sys, simplified.Options{})
		if err != nil {
			return fmt.Errorf("%s(%d): %w", family, param, err)
		}
		start := time.Now()
		res := v.VerifyContext(context.TODO())
		out = append(out, ScalingRow{
			Family: family, Param: param, Unsafe: res.Unsafe,
			Macro: res.Stats.MacroStates, EnvCfgs: res.Stats.EnvConfigs,
			EnvMsgs: res.Stats.EnvMsgs, Elapsed: time.Since(start),
		})
		return nil
	}

	// Axis 1: domain size — env threads chain increments, the watcher waits
	// for the maximal value.
	for _, d := range []int{4, 8, 12, 16, 20} {
		src := fmt.Sprintf(`
system chain { vars x; domain %d; env inc; dis w }
thread inc { regs r; r = load x; store x (r + 1) }
thread w { regs s; s = load x; assume s == %d; assert false }
`, d, d-1)
		if err := run("domain", d, lang.MustParseSystem(src)); err != nil {
			return nil, err
		}
	}

	// Axis 2: TQBF quantifier depth (fixed seed, 2 clauses).
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2} {
		q := tqbf.Random(r, n, 2)
		sys, err := tqbf.Reduce(q)
		if err != nil {
			return nil, err
		}
		if err := run("tqbf-depth", n, sys); err != nil {
			return nil, err
		}
	}

	// Axis 3: number of dis threads — independent writers plus a reader
	// that needs all flags.
	for _, k := range []int{1, 2, 3, 4} {
		var b strings.Builder
		fmt.Fprintf(&b, "system fan { vars f r")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, " w%d", i)
		}
		fmt.Fprintf(&b, "; domain 2; env helper")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, "; dis writer%d", i)
		}
		fmt.Fprintf(&b, "; dis reader }\n")
		b.WriteString("thread helper { store f 1 }\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, "thread writer%d { regs h; h = load f; assume h == 1; store w%d 1 }\n", i, i)
		}
		b.WriteString("thread reader {\n  regs v\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, "  v = load w%d; assume v == 1\n", i)
		}
		b.WriteString("  assert false\n}\n")
		if err := run("dis-count", k, lang.MustParseSystem(b.String())); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ScalingTable formats the scaling series.
func ScalingTable(rows []ScalingRow) *Table {
	t := &Table{
		Title:   "Scaling: verifier growth along domain size, TQBF depth, and dis-thread count",
		Columns: []string{"family", "param", "unsafe", "macro-states", "env-cfgs", "env-msgs", "time"},
	}
	for _, r := range rows {
		t.AddRow(r.Family, r.Param, r.Unsafe, r.Macro, r.EnvCfgs, r.EnvMsgs, r.Elapsed.Round(time.Microsecond))
	}
	t.Notes = append(t.Notes,
		"PSPACE-hardness (Theorem 5.1) makes worst-case growth unavoidable; the tqbf-depth family shows it",
		"the domain family grows polynomially: the abstraction never enumerates thread counts")
	return t
}
