package paramra

import (
	"cmp"
	"context"
	"strings"

	"paramra/internal/absint"
	"paramra/internal/lang"
	"paramra/internal/obs"
	"paramra/internal/simplified"
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
	out, rep := startPrepass(sys, opts)
	var err error
	if rep != nil {
		out, err = rep.Round(ctx, rep.MaxStates())
	}
	tracePrepass(span, out)
	return out, err
}

// startPrepass runs the once-per-system part of the prepass (absint.Start)
// with opts' goal and replay cap.
func startPrepass(sys *System, opts Options) (PrepassOutcome, *absint.Replay) {
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
	// explorers. As the replay's full cap it would keep the schedule
	// restarting the fixpoint under budgets up to that size, and let a
	// request whose fixpoint is capped replay five instances that large
	// before answering UNKNOWN.
	if opts.MaxStates > 0 {
		aopts.MaxReplayStates = min(opts.MaxStates, absint.DefaultMaxReplayStates)
	}
	return absint.Start(sys, aopts)
}

// tracePrepass records a prepass outcome on its span.
func tracePrepass(span *obs.Span, out PrepassOutcome) {
	if span == nil {
		return
	}
	span.SetAttr("verdict", out.Verdict.String())
	span.SetAttr("reason", out.Reason)
	if out.Analysis != nil {
		span.SetAttr("rounds", out.Analysis.Rounds)
	}
	if out.ReplayStates > 0 {
		span.SetAttr("replay_states", out.ReplayStates)
	}
}

// Budgets of the prepass schedule, in states: the first round's budget,
// and the factor by which each round's budget exceeds the one before.
const (
	firstRoundBudget  = 64
	roundBudgetGrowth = 4
)

// schedule is verify with the prepass on. After the once-per-system part of
// the prepass, it alternates a replay round and a fixpoint round under a
// state budget that grows from firstRoundBudget by roundBudgetGrowth per
// round, until one decides: the replay explores at most min(budget, its
// full cap) states per instance, the fixpoint admits at most min(budget,
// MaxMacroStates) macro-states. A budgeted round's answer counts only when
// the budget did not bind, so every answer — verdict, witness, §4.3 bound,
// fixpoint Stats — is the one that engine gives at its full cap, and the
// budgets decide only which engine answers. Once one engine has run at its
// full cap without deciding, or the replay has explored every instance
// exhaustively, the other runs at its full cap in one go. The Datalog
// backend has no state budget, so with Datalog the replay runs at its full
// cap first; goal queries have no replay, so the fixpoint runs at once.
//
// Only a fixpoint round at the full cap reports Progress, and the Result's
// Stats are those of the last fixpoint round (zero when none ran), so the
// Progress snapshots never fall back when a budgeted round ends.
func schedule(ctx context.Context, sys *System, opts Options, span *obs.Span) (Result, error) {
	rounds := 0
	seal := func(r Result, err error) (Result, error) {
		if span != nil {
			span.SetAttr("decided_by", r.DecidedBy)
			span.SetAttr("rounds", rounds)
			span.SetAttr("unsafe", r.Unsafe)
			span.SetAttr("complete", r.Complete)
		}
		return r, err
	}

	// The prepass runs on the original system, before any unrolling, so a
	// SAFE proof covers the true semantics rather than the bounded
	// under-approximation. The first replay round shares its span.
	pspan := span.Child("prepass")
	out, rep := startPrepass(sys, opts)
	var (
		work    *System
		ver     *simplified.Verifier
		last    = Result{EnvThreadBound: -1} // the last fixpoint round's result
		lastErr error
		fixDone bool // the fixpoint ran at its full cap, or cannot run
	)
	for budget := firstRoundBudget; ; budget *= roundBudgetGrowth {
		var err error
		if rep != nil && !rep.Done() {
			rounds++
			limit := rep.MaxStates()
			if !fixDone && !opts.Datalog {
				limit = min(budget, limit)
			}
			if pspan == nil {
				pspan = span.Child("prepass")
			}
			if pspan != nil {
				pspan.SetAttr("round", rounds)
				pspan.SetAttr("budget", limit)
			}
			out, err = rep.Round(ctx, limit)
		}
		if pspan != nil {
			tracePrepass(pspan, out)
			pspan.End()
			pspan = nil
		}
		if err != nil || out.Verdict != PrepassInconclusive {
			// The prepass ran on sys itself. Stats stay the last fixpoint
			// round's, which Progress may have reported.
			pre := Result{EnvThreadBound: -1, Class: lang.Classify(sys), Stats: last.Stats}
			if err != nil {
				return pre, err
			}
			return seal(applyPrepass(pre, out), nil)
		}
		last.PrepassReason = out.Reason
		if fixDone {
			// The replay has just run at its full cap as well.
			return seal(last, lastErr)
		}

		if work == nil {
			work, last = prepareBackend(sys, opts, span, last)
			last.DecidedBy = "fixpoint"
			if opts.Datalog {
				last.DecidedBy = "datalog"
				return seal(verifyDatalog(ctx, work, opts, last, span))
			}
			ver, lastErr = newFixpoint(work, opts, span)
			if lastErr != nil {
				// Without a fixpoint, the replay runs at its full cap
				// before the error is returned.
				fixDone = true
				if rep == nil || rep.Done() {
					return seal(last, lastErr)
				}
				continue
			}
		}
		// Round budget 0 runs the fixpoint at the caller's MaxMacroStates.
		roundBudget := 0
		if rep != nil && !rep.Done() && (opts.MaxMacroStates == 0 || budget < opts.MaxMacroStates) {
			roundBudget = budget
		}
		rounds++
		fspan := span.Child("fixpoint")
		if fspan != nil {
			fspan.SetAttr("round", rounds)
			fspan.SetAttr("budget", cmp.Or(roundBudget, opts.MaxMacroStates))
		}
		fout := ver.VerifyRound(ctx, fspan, roundBudget)
		fspan.End()
		last, lastErr = fixpointResult(last, work, fout)
		if lastErr != nil || fout.Unsafe || fout.Complete {
			return seal(last, lastErr)
		}
		if roundBudget == 0 {
			fixDone = true
			if rep == nil || rep.Done() {
				return seal(last, nil)
			}
		}
	}
}

// applyPrepass folds a decisive prepass outcome into a Result.
func applyPrepass(res Result, out PrepassOutcome) Result {
	res.Complete = true
	res.DecidedBy = "prepass"
	res.PrepassReason = out.Reason
	if out.Verdict == PrepassUnsafe {
		res.Unsafe = true
		res.EnvThreadBound = int64(out.EnvThreads)
		if out.Witness != "" {
			res.Witness = strings.Split(strings.TrimRight(out.Witness, "\n"), "\n")
		}
	}
	return res
}
