package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"paramra/internal/cm"
	"paramra/internal/lang"
	"paramra/internal/ra"
	"paramra/internal/simplified"
	"paramra/internal/tqbf"
)

// Table1 regenerates the paper's Table 1 (the complexity landscape), with
// one executable demonstration per cell:
//
//   - env(nocas) ∥ dis_1(acyc) ∥ … — PSPACE-complete: the verifier decides a
//     scaling family (TQBF reductions of growing quantifier depth; the lower
//     bound says the growth is unavoidable in the worst case);
//   - env(nocas) ∥ dis(nocas) — non-primitive-recursive / open: looping dis
//     threads are rejected and handled only by bounded unrolling;
//   - env(acyc) with CAS — undecidable (Theorem 1.1): the counter-machine
//     reduction is rejected by the verifier; bounded instances are explored
//     concretely.
func Table1() *Table {
	t := &Table{
		Title:   "Table 1: complexity landscape, exercised",
		Columns: []string{"cell", "status", "demonstration"},
	}

	// PSPACE cell: TQBF scaling sweep.
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2} {
		q := tqbf.Random(r, n, 2)
		sys, err := tqbf.Reduce(q)
		if err != nil {
			t.AddRow("env(nocas)||dis(acyc): PSPACE", "error", err.Error())
			continue
		}
		v, err := simplified.New(sys, simplified.Options{})
		if err != nil {
			t.AddRow("env(nocas)||dis(acyc): PSPACE", "error", err.Error())
			continue
		}
		start := time.Now()
		res := v.VerifyContext(context.TODO())
		t.AddRow("env(nocas)||dis(acyc): PSPACE", "decided",
			fmt.Sprintf("TQBF n=%d (%d vars): verdict=%v==QBF=%v, env-cfgs=%d, %v",
				n, len(q.Vars), res.Unsafe, q.Eval(), res.Stats.EnvConfigs,
				time.Since(start).Round(time.Microsecond)))
	}

	// dis(nocas) with loops: rejected, bounded unrolling as the fallback.
	loopSys := lang.MustParseSystem(`
system looping { vars x; domain 4; env w; dis d }
thread w { regs r; r = load x; store x (r + 1) }
thread d { regs s; while s != 3 { s = load x }; assert false }
`)
	_, err := simplified.New(loopSys, simplified.Options{})
	if !errors.Is(err, simplified.ErrDisCyclic) {
		t.AddRow("env(nocas)||dis(nocas): beyond PSPACE", "BUG", "looping dis accepted")
	} else {
		for _, k := range []int{1, 3} {
			u := lang.UnrollSystem(loopSys, k)
			v, err := simplified.New(u, simplified.Options{})
			if err != nil {
				t.AddRow("env(nocas)||dis(nocas): beyond PSPACE", "error", err.Error())
				continue
			}
			res := v.VerifyContext(context.TODO())
			t.AddRow("env(nocas)||dis(nocas): beyond PSPACE", "under-approx",
				fmt.Sprintf("unroll k=%d: unsafe=%v (exact problem NPR/open [1])", k, res.Unsafe))
		}
	}

	// env with CAS: undecidable; counter-machine reduction.
	m := &cm.Machine{States: []cm.Instr{
		{Kind: cm.OpInc, Counter: 0, Next: 1},
		{Kind: cm.OpInc, Counter: 0, Next: 2},
		{Kind: cm.OpHalt},
	}}
	casSys, err := cm.Reduce(m, 3)
	if err != nil {
		t.AddRow("env(acyc) with CAS: undecidable", "error", err.Error())
	} else {
		_, err = simplified.New(casSys, simplified.Options{})
		status := "rejected by verifier (Theorem 1.1)"
		if !errors.Is(err, simplified.ErrEnvCAS) {
			status = "BUG: env CAS accepted"
		}
		inst, ierr := ra.NewInstance(casSys, 3)
		detail := ""
		if ierr == nil {
			res := inst.ExploreContext(context.TODO(), ra.Limits{MaxStates: 2_000_000})
			detail = fmt.Sprintf("bounded check, 3 threads: machine halts in 2 steps, unsafe=%v", res.Unsafe)
		}
		t.AddRow("env(acyc) with CAS: undecidable", status, detail)
	}
	t.Notes = append(t.Notes,
		"undecidability and NPR cells cannot be 'run'; the demonstrations show the class boundary and the bounded fallbacks")
	return t
}
