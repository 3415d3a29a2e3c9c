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
// The replay is one sequential search, so an UNSAFE witness is the same on
// every run.
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
// the prepass, it alternates a replay round and a backend round — the
// fixpoint's, or with Options.Datalog the Datalog backend's — under a budget
// that grows from firstRoundBudget by roundBudgetGrowth per round, until one
// decides. The replay has the first turn. Its round explores at most
// min(budget, its full cap) states, summed over the instances it explores;
// a fixpoint round admits at most min(budget, MaxMacroStates) macro-states,
// and a Datalog round walks at most min(budget, skeletonCap) skeletons. A
// budgeted round's answer counts only when the budget did not bind, so
// every answer — verdict, witness, §4.3 bound, backend Stats — is the one
// that engine gives at its full cap, and the budgets decide only which
// engine answers. Once one engine has run at its full cap without
// deciding, or the replay has explored every instance exhaustively, the
// other runs at its full cap in one go. Goal queries have no replay, so the
// backend runs at once.
//
// Only a backend round at its full cap reports Progress. The Result's Stats
// are the last backend round's, except that a prepass answer keeps them
// only when that round ran at its full cap and is otherwise zero, as when
// no backend round ran: the Progress snapshots never fall back, and a
// prepass answer carries no counters of a budgeted round that decided
// nothing.
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
		work *System
		ver  *simplified.Verifier // the fixpoint, without Datalog
		dl   *datalogBackend      // with Datalog
		// last is the last backend round's result. lastErr is non-nil
		// between rounds only when the backend cannot run.
		last        = Result{EnvThreadBound: -1}
		lastErr     error
		backendDone bool // the backend ran at its full cap, or cannot run
		// lastFull is whether the last backend round ran at its full cap,
		// and so reported Progress.
		lastFull bool
	)
	// fullCap is the backend's full cap in its budget's unit (0 = none).
	fullCap := opts.MaxMacroStates
	if opts.Datalog {
		fullCap = skeletonCap(opts)
	}
	for budget := firstRoundBudget; ; budget *= roundBudgetGrowth {
		var err error
		if rep != nil && !rep.Done() {
			rounds++
			limit := rep.MaxStates()
			if !backendDone {
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
			// The prepass ran on sys itself. Stats stay the last backend
			// round's when it ran at its full cap, since Progress reported
			// them; a budgeted round reported nothing and decided nothing.
			pre := Result{EnvThreadBound: -1, Class: lang.Classify(sys)}
			if lastErr == nil && lastFull {
				pre.Stats = last.Stats
			}
			if err != nil {
				return pre, err
			}
			return seal(applyPrepass(pre, out), nil)
		}
		last.PrepassReason = out.Reason
		if backendDone {
			// The replay has just run at its full cap as well.
			return seal(last, lastErr)
		}

		if work == nil {
			work, last = prepareBackend(sys, opts, span, last)
			if opts.Datalog {
				dl = newDatalog(work, opts)
			} else {
				ver, lastErr = newFixpoint(work, opts, span)
			}
		}
		// Round budget 0 runs the backend at its full cap.
		roundBudget := 0
		if rep != nil && !rep.Done() && (fullCap == 0 || budget < fullCap) {
			roundBudget = budget
		}
		decided := false
		if lastErr == nil {
			rounds++
			lastFull = roundBudget == 0
			bspan := span.Child(backendName(opts))
			if bspan != nil {
				bspan.SetAttr("round", rounds)
				bspan.SetAttr("budget", cmp.Or(roundBudget, fullCap))
			}
			if opts.Datalog {
				last, lastErr = dl.round(ctx, bspan, last, roundBudget)
				bspan.End()
				decided = last.Complete || (lastErr != nil && dl.enc != nil)
			} else {
				fout := ver.VerifyRound(ctx, bspan, roundBudget)
				bspan.End()
				last, lastErr = fixpointResult(last, work, fout)
				decided = lastErr != nil || fout.Unsafe || fout.Complete
			}
		}
		if decided {
			return seal(last, lastErr)
		}
		if roundBudget == 0 || lastErr != nil {
			// Without a backend, the replay runs at its full cap before the
			// error is returned.
			backendDone = true
			if rep == nil || rep.Done() {
				return seal(last, lastErr)
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
