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
// Prepass does all of this in one call; Start and Replay split it into the
// once-per-system part and a replay that runs in slices, which a caller
// can interleave with the fixpoint.
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
// Prepass is Start followed by the replay in one slice.
//
// The only error returned is the context's, when cancellation interrupts a
// replay before a verdict.
func Prepass(ctx context.Context, sys *lang.System, opts Options) (Outcome, error) {
	out, rep := Start(sys, opts)
	if rep == nil {
		return out, nil
	}
	out, _, err := rep.Run(ctx, nil)
	return out, err
}

// Start runs the part of the prepass a caller pays once per system: the
// value analysis, the abstract SAFE check and the candidate search. Its
// outcome is SAFE or Inconclusive. When a candidate path makes the concrete
// replay worth running, Start also returns the Replay that runs it;
// otherwise the Replay is nil.
func Start(sys *lang.System, opts Options) (Outcome, *Replay) {
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

	// Start at one replica when only the env template has a candidate (its
	// asserts need an instance containing an env thread).
	rep := &Replay{sys: sys, base: out, maxStates: opts.MaxReplayStates, n: 1, maxN: maxReplayEnv}
	for _, c := range cands {
		if !c.EnvThread {
			rep.n = 0
			break
		}
	}
	if sys.Env == nil {
		rep.maxN = 0
	}
	return out, rep
}

// Replay is the concrete replay of one prepass: it searches the instances
// with 0 (or 1) to 4 env threads under the full RA semantics, fewest env
// threads first, each up to the per-instance cap (Options.MaxReplayStates),
// for a violation. Any violation found is definitive. Every instance runs
// on one worker, so witnesses and state counts are reproducible. Each
// instance is built from the one before it, so the system's CFGs are
// compiled once.
//
// The replay runs in slices: each Run continues the instance where the
// last one paused, keeping its stack and visited set, so the replay in
// slices explores the states of the replay in one slice, in its order, and
// ends with the same outcome.
type Replay struct {
	sys       *lang.System
	base      Outcome // Start's inconclusive outcome
	maxStates int     // the per-instance cap
	// n is the instance being explored, of 0 (or 1) to maxN; inst and ex
	// are it and its search once built.
	n, maxN int
	inst    *ra.Instance
	ex      *ra.Explorer
	// states counts the states of the instances explored before n.
	states int
	// out is the outcome once ended.
	out   Outcome
	ended bool
}

// MaxStates is the per-instance cap.
func (r *Replay) MaxStates() int { return r.maxStates }

// States is the number of concrete states the replay has admitted so far,
// summed over its instances.
func (r *Replay) States() int {
	if r.ex == nil {
		return r.states
	}
	return r.states + r.ex.States()
}

// Run continues the replay. It returns the outcome and true once the
// replay has ended: UNSAFE with its witness on a violation, else
// Inconclusive after the last instance. When pause (nil = never) reports
// true before an expansion, it returns Start's outcome and false, and the
// next Run resumes there. ReplayStates counts the states of every instance
// explored. The only error is ctx's, which ends the replay.
func (r *Replay) Run(ctx context.Context, pause func() bool) (Outcome, bool, error) {
	if r.ended {
		return r.out, true, nil
	}
	out := r.base
	for ; r.n <= r.maxN; r.n++ {
		if r.ex == nil {
			inst, err := r.instance()
			if err != nil {
				// Validation failures are not the prepass's to report; let
				// the main pipeline surface them.
				out.Reason = "replay unavailable: " + err.Error()
				return r.end(out), true, nil
			}
			r.inst = inst
			r.ex = inst.Explorer(ra.Limits{MaxStates: r.maxStates, Symmetry: r.n > 1})
		}
		res, ended := r.ex.Run(ctx, pause)
		if !ended {
			out.ReplayStates = r.States()
			return out, false, nil
		}
		r.states += res.States
		r.ex = nil
		out.ReplayStates = r.states
		if res.Unsafe {
			out.Verdict = Unsafe
			out.EnvThreads = r.n
			out.Witness = ra.FormatWitness(res.Witness)
			out.Reason = fmt.Sprintf("concrete replay with %d env thread(s) reaches the assert (%d states)",
				r.n, res.States)
			return r.end(out), true, nil
		}
		if res.Err != nil {
			out.Reason = "replay interrupted: " + res.Err.Error()
			return r.end(out), true, res.Err
		}
	}
	out.Reason = fmt.Sprintf("candidate path found, but no replay instance within %d env thread(s) and %d states confirms",
		r.maxN, r.maxStates)
	return r.end(out), true, nil
}

// instance builds instance n, from the instance before it when that one was
// built.
func (r *Replay) instance() (*ra.Instance, error) {
	if r.inst != nil {
		return r.inst.WithEnv(r.n)
	}
	return ra.NewInstance(r.sys, r.n)
}

// end records out as the replay's outcome.
func (r *Replay) end(out Outcome) Outcome {
	r.out, r.ended, r.inst, r.ex = out, true, nil, nil
	return out
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
