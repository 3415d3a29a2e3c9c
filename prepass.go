package paramra

import (
	"context"
	"strings"

	"paramra/internal/absint"
	"paramra/internal/lang"
	"paramra/internal/obs"
)

// Prepass verdict values (Theorem 3.4 lattice positions the static prepass
// can reach on its own).
type PrepassVerdict = absint.Verdict

// Re-exported prepass verdicts.
const (
	// PrepassInconclusive means the static prepass could not decide.
	PrepassInconclusive = absint.Inconclusive
	// PrepassSafe is a sound proof valid for every replica count.
	PrepassSafe = absint.Safe
	// PrepassUnsafe is a concrete, replayed witness.
	PrepassUnsafe = absint.Unsafe
)

// PrepassOutcome is the full answer of the static prepass.
type PrepassOutcome = absint.Outcome

// Prepass runs the RA-aware abstract interpretation and its two fast paths
// on the system without any state-space search: SAFE when no assert (or the
// goal message, with Options.Goal) is abstractly reachable for any replica
// count, UNSAFE when a loop-free constant-folded path to an assert is
// confirmed by a bounded concrete replay under the full RA semantics.
// Inconclusive verdicts carry the reason the fast paths did not fire.
//
// The replay runs on one worker whatever Options.Parallelism says, so an
// UNSAFE witness is the same on every run.
//
// Verify runs this automatically when Options.Prepass is set; the separate
// entry point serves callers that want the abstract analysis itself (e.g.
// value-set reports) or a decision without ever falling back to a search.
func Prepass(ctx context.Context, sys *System, opts Options) (PrepassOutcome, error) {
	opts = opts.normalized()
	span := opts.beginSpan("prepass")
	defer span.End()
	return prepass(ctx, sys, opts, span)
}

func prepass(ctx context.Context, sys *System, opts Options, span *obs.Span) (PrepassOutcome, error) {
	var aopts absint.Options
	if opts.Goal != nil {
		v, ok := sys.VarByName(opts.Goal.Var)
		if !ok {
			// Let the main pipeline report the unknown variable; the prepass
			// just declines to decide.
			return PrepassOutcome{Verdict: PrepassInconclusive,
				Reason: "unknown goal variable"}, nil
		}
		aopts.Goal = &absint.Goal{Var: v, Val: lang.Val(opts.Goal.Val)}
	}
	// MaxStates can only lower the replay cap. The replay is a fast path
	// for witnesses that show up in small instances; a caller's larger
	// budget (raserved passes 2,000,000) is meant for the concrete
	// explorers and would let an undecided replay run for seconds before
	// the fixpoint, which decides such systems in milliseconds, gets a turn.
	if opts.MaxStates > 0 {
		aopts.MaxReplayStates = min(opts.MaxStates, absint.DefaultMaxReplayStates)
	}
	out, err := absint.Prepass(ctx, sys, aopts)
	if span != nil {
		span.SetAttr("verdict", out.Verdict.String())
		span.SetAttr("reason", out.Reason)
		if out.Analysis != nil {
			span.SetAttr("rounds", out.Analysis.Rounds)
		}
		if out.ReplayStates > 0 {
			span.SetAttr("replay_states", out.ReplayStates)
		}
	}
	return out, err
}

// applyPrepass folds a decisive prepass outcome into a Result. The second
// return is false when the outcome is inconclusive (the caller proceeds to
// the full decision procedure).
func applyPrepass(res Result, out PrepassOutcome) (Result, bool) {
	switch out.Verdict {
	case PrepassSafe:
		res.Complete = true
		res.DecidedBy = "prepass"
		res.PrepassReason = out.Reason
		return res, true
	case PrepassUnsafe:
		res.Unsafe = true
		res.Complete = true
		res.DecidedBy = "prepass"
		res.PrepassReason = out.Reason
		res.EnvThreadBound = int64(out.EnvThreads)
		if out.Witness != "" {
			res.Witness = strings.Split(strings.TrimRight(out.Witness, "\n"), "\n")
		}
		return res, true
	default:
		res.PrepassReason = out.Reason
		return res, false
	}
}
