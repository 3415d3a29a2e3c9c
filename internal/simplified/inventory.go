package simplified

import (
	"context"

	"paramra/internal/lang"
)

// InventoryContext computes the full Message Generation relation: every
// (variable, value) pair for which some reachable configuration of the
// simplified semantics contains a message. Asserts are inert during the
// computation (as in MG mode); the boolean reports search completeness, so
// cancellation or the macro-state cap yields false.
//
// It is VerifyContext's search plus a hook that records the messages of
// every admitted macro-state. The inventory answers all MG queries of §4.1
// at once; per-pair Goal queries agree with it (cross-checked in the
// tests).
func (v *Verifier) InventoryContext(ctx context.Context) (map[lang.VarID]map[lang.Val]bool, Stats, bool) {
	// Force MG mode with an unreachable goal so asserts are inert and the
	// search never exits early. The search runs on this goroutine, and the
	// goal is restored when it returns.
	savedGoal := v.opts.Goal
	v.opts.Goal = &Goal{Var: 0, Val: -1}
	defer func() { v.opts.Goal = savedGoal }()

	inv := make(map[lang.VarID]map[lang.Val]bool, len(v.sys.Vars))
	for i := range v.sys.Vars {
		inv[lang.VarID(i)] = map[lang.Val]bool{}
	}
	span := v.opts.Trace.Child("fixpoint")
	defer span.End()
	res := v.search(ctx, span, 0, func(st *state) {
		for vi := 0; vi < st.mem.NumVars(); vi++ {
			st.mem.Each(lang.VarID(vi), func(m AMsg) {
				inv[m.Var][m.Val] = true
			})
		}
		for _, me := range st.env.Msgs {
			inv[me.Msg.Var][me.Msg.Val] = true
		}
	})
	return inv, res.Stats, res.Complete
}
