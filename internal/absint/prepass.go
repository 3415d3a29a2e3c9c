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
// once-per-system part and replay rounds of growing state caps, which a
// caller can interleave with the fixpoint.
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
// Prepass is Start followed by one replay Round at the full cap.
//
// The only error returned is the context's, when cancellation interrupts a
// replay before a verdict.
func Prepass(ctx context.Context, sys *lang.System, opts Options) (Outcome, error) {
	out, rep := Start(sys, opts)
	if rep == nil {
		return out, nil
	}
	return rep.Round(ctx, rep.MaxStates())
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
	rep := &Replay{sys: sys, base: out, maxStates: opts.MaxReplayStates, next: 1, maxN: maxReplayEnv}
	for _, c := range cands {
		if !c.EnvThread {
			rep.next = 0
			break
		}
	}
	if sys.Env == nil {
		rep.maxN = 0
	}
	rep.insts = make([]*ra.Instance, rep.maxN+1)
	return out, rep
}

// Replay is the concrete replay of one prepass: it searches the instances
// with 0 (or 1) to 4 env threads under the full RA semantics, fewest env
// threads first, for a violation. Any violation found is definitive. Every
// instance runs on one worker, so witnesses and state counts are
// reproducible.
//
// The replay runs in rounds, each with a per-instance state cap, and a
// round skips the instances an earlier round explored exhaustively. Below
// the full cap (Options.MaxReplayStates) a round ends an instance's search
// at the first state its cap keeps out, and ends the round there. Since a
// one-worker search admits states in the same order under any cap, an
// UNSAFE outcome is then exactly the one a single round at the full cap
// gives: same env-thread count, witness and reason.
type Replay struct {
	sys       *lang.System
	base      Outcome // Start's inconclusive outcome
	maxStates int     // the full per-instance cap
	// Instances next..maxN have not been explored exhaustively; insts[n]
	// is instance n once built.
	next, maxN int
	insts      []*ra.Instance
	// done is set once no further round can decide: a round ran at the
	// full cap, every instance was explored exhaustively, or an instance
	// could not be built.
	done bool
}

// MaxStates is the full per-instance cap.
func (r *Replay) MaxStates() int { return r.maxStates }

// Done reports whether no further round can decide.
func (r *Replay) Done() bool { return r.done }

// Round replays the instances not yet explored exhaustively with at most
// maxStates states each; a cap at or above MaxStates is the full cap, and
// a round at the full cap is the last. The outcome is UNSAFE with its
// witness, or Inconclusive; ReplayStates counts this round's states.
func (r *Replay) Round(ctx context.Context, maxStates int) (Outcome, error) {
	full := maxStates >= r.maxStates
	if full {
		maxStates = r.maxStates
		r.done = true
	}
	out := r.base
	reached := r.next
	for n := r.next; n <= r.maxN; n++ {
		if r.insts[n] == nil {
			inst, err := ra.NewInstance(r.sys, n)
			if err != nil {
				// Validation failures are not the prepass's to report; let
				// the main pipeline surface them.
				r.done = true
				out.Reason = "replay unavailable: " + err.Error()
				return out, nil
			}
			r.insts[n] = inst
		}
		res := r.insts[n].ExploreContext(ctx, ra.Limits{
			MaxStates: maxStates,
			StopAtCap: !full,
			Workers:   1,
			Symmetry:  n > 1,
		})
		out.ReplayStates += res.States
		if res.Unsafe {
			r.done = true
			out.Verdict = Unsafe
			out.EnvThreads = n
			out.Witness = ra.FormatWitness(res.Witness)
			out.Reason = fmt.Sprintf("concrete replay with %d env thread(s) reaches the assert (%d states)",
				n, res.States)
			return out, nil
		}
		if res.Err != nil {
			out.Reason = "replay interrupted: " + res.Err.Error()
			return out, res.Err
		}
		reached = n
		if res.Complete && n == r.next {
			r.next++
		} else if !full {
			break
		}
	}
	if r.next > r.maxN {
		r.done = true
	}
	out.Reason = fmt.Sprintf("candidate path found, but no replay instance within %d env thread(s) and %d states confirms",
		reached, maxStates)
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
