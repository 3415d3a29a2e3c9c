package simplified

import "context"

// SequentialVerifyForTest runs the macro-state search as a plain sequential
// breadth-first loop: saturate env behaviour, branch over dis transitions,
// repeat. It is the reference VerifyContext is differentially tested
// against, and it shares the semantics (saturation, dis successors with
// their canonical step, keys) but not the engine. Result.Engine is left
// zero.
func SequentialVerifyForTest(v *Verifier) Result {
	ex := v.fixpointExec(context.Background())
	// The initial macro-state counts as visited even when its own
	// saturation already finds the violation, as in VerifyContext.
	ex.stats.MacroStates = 1

	init := v.initState()
	if viol, _ := ex.saturate(init); viol != nil {
		return ex.unsafeResult(viol, init)
	}
	if viol := ex.checkGoalDis(init); viol != nil {
		return ex.unsafeResult(viol, init)
	}

	seen := map[string]bool{init.key(): true}
	queue := []*state{init}
	limited := false

	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		ex.recordSizes(st)

		succs, viol := ex.disSuccessors(st)
		if viol != nil {
			return ex.unsafeResult(viol, st)
		}
		for _, ns := range succs {
			// Saturation and the goal check are skipped when the dis memory
			// is untouched: the successor inherits its parent's env fixpoint
			// and its (already checked, goal-free) result (see memChanged).
			if ns.memChanged() {
				if viol, _ := ex.saturate(ns); viol != nil {
					return ex.unsafeResult(viol, ns)
				}
				if viol := ex.checkGoalDis(ns); viol != nil {
					return ex.unsafeResult(viol, ns)
				}
			}
			k := ns.key()
			if seen[k] {
				ex.freeState(ns)
				continue
			}
			if v.opts.MaxMacroStates > 0 && ex.stats.MacroStates >= v.opts.MaxMacroStates {
				limited = true
				continue
			}
			seen[k] = true
			ex.stats.MacroStates++
			queue = append(queue, ns)
		}
	}
	return Result{Unsafe: false, Complete: !limited, Stats: ex.stats}
}
