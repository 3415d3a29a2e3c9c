// Package absint is the static prepass: it tries to decide parameterized
// safety in milliseconds, before the full decision procedure runs. It reads
// the interference-closed value sets of internal/analysis (sound for every
// replica count), and
//
//   - answers SAFE when no `assert false` is abstractly reachable (or, for a
//     Message Generation goal, when the goal value is outside the variable's
//     written-set);
//   - otherwise searches each thread for a loop-free path to an assert whose
//     assumes and CAS expects are satisfiable with values drawn from the
//     written-sets (candidate.go), and
//   - when one exists, replays small concrete instances under the full RA
//     semantics (internal/ra), so an UNSAFE answer is a real witness by
//     construction.
//
// Everything else is Inconclusive, and the caller runs the fixpoint.
package absint

import (
	"context"
	"fmt"

	"paramra/internal/analysis"
	"paramra/internal/lang"
	"paramra/internal/ra"
)

// Verdict is the prepass outcome under the Theorem 3.4 lattice.
type Verdict int

// Prepass verdicts.
const (
	// Inconclusive means the prepass could not decide; run the full
	// decision procedure.
	Inconclusive Verdict = iota
	// Safe is a definitive proof: no assert (or goal message) is abstractly
	// reachable for any replica count.
	Safe
	// Unsafe is a definitive witness: a concrete instance replayed under
	// the full RA semantics reaches an assert.
	Unsafe
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Safe:
		return "SAFE"
	case Unsafe:
		return "UNSAFE"
	default:
		return "INCONCLUSIVE"
	}
}

// Goal switches the prepass to the Message Generation problem (§4.1): can
// a message with the given variable and value be generated? Only the SAFE
// fast path applies to goals.
type Goal struct {
	Var lang.VarID
	Val lang.Val
}

// DefaultMaxReplayStates is the per-instance state cap of the concrete
// replay when Options.MaxReplayStates is zero.
const DefaultMaxReplayStates = 30_000

// maxReplayEnv is the largest env replica count the replay tries.
const maxReplayEnv = 4

// Options bounds the prepass. The zero value selects the defaults noted on
// each field.
type Options struct {
	// Goal, when non-nil, asks Message Generation instead of assert
	// reachability.
	Goal *Goal
	// MaxReplayStates caps each concrete replay instance (default
	// DefaultMaxReplayStates).
	MaxReplayStates int
}

func (o Options) withDefaults() Options {
	if o.MaxReplayStates == 0 {
		o.MaxReplayStates = DefaultMaxReplayStates
	}
	return o
}

// Outcome is the full prepass answer.
type Outcome struct {
	Verdict Verdict
	// Reason is a one-line human-readable justification.
	Reason string
	// Analysis is the underlying value analysis.
	Analysis *analysis.Result
	// EnvThreads is the replica count of the confirming instance (UNSAFE
	// verdicts only; 0 for env-less witnesses).
	EnvThreads int
	// Witness is the confirming interleaving, one event per line (UNSAFE
	// verdicts only).
	Witness string
	// ReplayStates counts concrete states explored across all replay
	// instances (0 when no replay ran).
	ReplayStates int
}

// Prepass tries to decide parameterized safety statically, in milliseconds:
// SAFE when the abstract interpretation proves no assert reachable (sound
// for every replica count, including systems outside the decidable
// fragment — dis loops and env CAS are handled abstractly); UNSAFE when a
// constant-folded loop-free path to an assert exists and a bounded concrete
// replay under the full RA semantics confirms it (so an UNSAFE answer is a
// real witness by construction). Everything else is Inconclusive.
//
// The only error returned is the context's, when cancellation interrupts a
// replay before a verdict.
func Prepass(ctx context.Context, sys *lang.System, opts Options) (Outcome, error) {
	opts = opts.withDefaults()
	res := analysis.Analyze(sys)
	out := Outcome{Verdict: Inconclusive, Analysis: res}

	if opts.Goal != nil {
		g := *opts.Goal
		if !res.VarCanHold(g.Var, g.Val) {
			out.Verdict = Safe
			out.Reason = fmt.Sprintf("goal value %d is outside the abstract value set %s of '%s'",
				int(g.Val), res.Written[g.Var], sys.VarName(g.Var))
			return out, nil
		}
		out.Reason = "goal value is abstractly writable; no static witness path for goals"
		return out, nil
	}

	if !assertReachable(res) {
		out.Verdict = Safe
		out.Reason = "no 'assert false' is abstractly reachable for any replica count"
		return out, nil
	}

	cands := findCandidates(res)
	if len(cands) == 0 {
		out.Reason = "assert abstractly reachable, but no loop-free constant-folded witness prefix"
		return out, nil
	}

	// Replay: search small concrete instances under the full RA semantics.
	// Any violation found is definitive. Start at one replica when only the
	// env template has a candidate (its asserts need an instance containing
	// an env thread). Each instance runs on one worker, so the witness and
	// the state counts are reproducible.
	minN := 1
	for _, c := range cands {
		if !c.EnvThread {
			minN = 0
			break
		}
	}
	maxN := maxReplayEnv
	if sys.Env == nil {
		maxN = 0
	}
	for n := minN; n <= maxN; n++ {
		inst, err := ra.NewInstance(sys, n)
		if err != nil {
			// Validation failures are not the prepass's to report; let the
			// main pipeline surface them.
			out.Reason = "replay unavailable: " + err.Error()
			return out, nil
		}
		r := inst.ExploreContext(ctx, ra.Limits{
			MaxStates: opts.MaxReplayStates,
			Workers:   1,
			Symmetry:  n > 1,
		})
		out.ReplayStates += r.States
		if r.Unsafe {
			out.Verdict = Unsafe
			out.EnvThreads = n
			out.Witness = ra.FormatWitness(r.Witness)
			out.Reason = fmt.Sprintf("concrete replay with %d env thread(s) reaches the assert (%d states)",
				n, r.States)
			return out, nil
		}
		if r.Err != nil {
			out.Reason = "replay interrupted: " + r.Err.Error()
			return out, r.Err
		}
	}
	out.Reason = fmt.Sprintf("candidate path found, but no replay instance within %d env thread(s) and %d states confirms",
		maxN, opts.MaxReplayStates)
	return out, nil
}

// assertReachable reports whether any thread has an abstractly reachable
// `assert false` edge. When false, the system is definitively SAFE for
// every replica count.
func assertReachable(res *analysis.Result) bool {
	for _, tf := range res.Programs {
		for _, edges := range tf.CFG.Out {
			for _, e := range edges {
				if e.Op.Kind == lang.OpAssertFail && tf.Reachable(e.From) {
					return true
				}
			}
		}
	}
	return false
}
