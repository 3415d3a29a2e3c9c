package paramra

import (
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
		out, _, err = rep.Run(ctx, nil)
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
	// explorers. As the replay's cap it would let a request whose fixpoint
	// is capped replay five instances that large before answering UNKNOWN.
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
	if out.Reason != "" {
		span.SetAttr("reason", out.Reason)
	}
	if out.Analysis != nil {
		span.SetAttr("rounds", out.Analysis.Rounds)
	}
	if out.ReplayStates > 0 {
		span.SetAttr("replay_states", out.ReplayStates)
	}
}

// The meter of the prepass schedule. Every engine charges it in units of
// about 1 µs of its own work on the corpus (DESIGN, "One meter for every
// engine"): the replay one per concrete state it admits, the fixpoint one
// per macro-state it admits plus one per satStepsPerUnit saturation steps,
// and the Datalog backend datalogStepUnits per step of its walk that it
// evaluates, beside datalogStartUnits for emitting the prefix and
// evaluating its shared model, which no pause can cut and which it is
// charged before its first slice. Each round of the schedule raises the
// engines' common target, from firstSlice, by sliceGrowth.
const (
	firstSlice        = 16
	sliceGrowth       = 2
	satStepsPerUnit   = 10
	datalogStepUnits  = 3
	datalogStartUnits = 100
)

// replayPending is the prepass's reason while its replay has confirmed
// nothing.
const replayPending = "candidate path found; no concrete replay confirmed it"

// fixpointUnits is the fixpoint's spend for its work so far.
func fixpointUnits(macroStates, saturationSteps int) int64 {
	return int64(macroStates) + int64(saturationSteps/satStepsPerUnit)
}

// backend is a decision procedure the schedule meters: the fixpoint's
// search or the Datalog backend, each resumable.
type backend interface {
	// run continues the backend under span, a slice span the caller opens
	// and ends, until it ends or pause (nil = never) reports true between
	// two expansions. It returns the Result so far and whether the backend
	// ended; an error always ends it.
	run(ctx context.Context, span *obs.Span, pause func() bool) (Result, bool, error)
	// units is the backend's spend so far.
	units() int64
	// stop ends a backend that has not ended, as a caller that will not
	// resume it, for its Result so far: its Progress reports the counters
	// last.
	stop() Result
}

// fixpointBackend is the fixpoint's search on the system work, as the
// schedule's backend.
type fixpointBackend struct {
	work   *System
	base   Result
	search *simplified.Search
}

func (f *fixpointBackend) run(ctx context.Context, span *obs.Span, pause func() bool) (Result, bool, error) {
	out, ended := f.search.Run(ctx, span, pause)
	res, err := fixpointResult(f.base, f.work, out)
	return res, ended || err != nil, err
}

func (f *fixpointBackend) units() int64 { return fixpointUnits(f.search.Work()) }

func (f *fixpointBackend) stop() Result {
	res, _ := fixpointResult(f.base, f.work, f.search.Stop())
	return res
}

func (d *datalogBackend) units() int64 {
	return datalogStartUnits + int64(d.steps)*datalogStepUnits
}

// schedule is verify with the prepass on. After the once-per-system part of
// the prepass, it runs the replay and the backend — the fixpoint, or with
// Options.Datalog the Datalog backend — in slices under one meter, until
// one decides. Each round raises a common target, from firstSlice by
// sliceGrowth, and the replay, then the backend, runs until its own spend
// reaches it; an engine already past the target sits the round out. Every
// engine keeps its frontier between its slices and pauses only between two
// expansions (between two skeletons for the Datalog walk), so whatever an
// engine answers — verdict, witness, §4.3 bound, the backend's Stats — is
// what it answers run alone, and the meter decides only which engine
// answers, the same way on every run. An engine that ends undecided at its
// full cap, or a backend that cannot run on the system, leaves the other
// to run alone to its end. Goal queries have no replay, so the backend
// runs alone at once.
//
// The Result's Stats are the backend's counters when the schedule stopped,
// zero when it never ran; its Progress reports them throughout. A
// backend's answer carries a PrepassReason that does not depend on how far
// the replay got.
func schedule(ctx context.Context, sys *System, opts Options, span *obs.Span) (Result, error) {
	s := &sched{sys: sys, span: span,
		replay: EngineRun{Engine: "prepass"}, back: EngineRun{Engine: backendName(opts)}}

	// The prepass runs on the original system, before any unrolling, so a
	// SAFE proof covers the true semantics rather than the bounded
	// under-approximation. The replay's first slice shares its span.
	pspan := span.Child("prepass")
	out, rep := startPrepass(sys, opts)
	// reason is the PrepassReason of a backend answer: Start's, or the
	// replay's once it ended. A backend's verdict beside a replay names no
	// replay progress.
	reason := out.Reason
	if rep == nil {
		tracePrepass(pspan, out)
		pspan.End()
		if out.Verdict != PrepassInconclusive {
			return s.seal(applyPrepass(s.prepassBase(), out), nil)
		}
	} else {
		reason = replayPending
	}

	// last is the backend's Result once it ended undecided or could not
	// run, with lastErr its error.
	var (
		last     Result
		lastErr  error
		replayOn = rep != nil
		backOn   = true
	)
	replayPause := func() bool { return int64(rep.States()) >= s.target }
	backPause := func() bool { return s.b.units() >= s.target }
	for s.target = firstSlice; ; s.target *= sliceGrowth {
		target := s.target
		if replayOn && (!backOn || int64(rep.States()) < target) {
			pause := replayPause
			if !backOn {
				pause = nil
			}
			if pspan == nil {
				pspan = span.Child("prepass")
			}
			s.replay.Slices++
			traceSlice(pspan, s.replay.Slices, target, pause != nil)
			out, ended, err := rep.Run(ctx, pause)
			s.replay.Units = int64(rep.States())
			if pspan != nil {
				pspan.SetAttr("units", s.replay.Units)
				pspan.SetAttr("cap", rep.MaxStates())
				tracePrepass(pspan, out)
				pspan.End()
				pspan = nil
			}
			if err != nil {
				return s.stopBackend(), err
			}
			if ended {
				replayOn = false
				if out.Verdict != PrepassInconclusive {
					s.replay.Decided = true
					return s.seal(applyPrepass(s.stopBackend(), out), nil)
				}
				reason = out.Reason
				if !backOn {
					last.PrepassReason = reason
					return s.seal(last, lastErr)
				}
			}
		}
		if backOn && (!replayOn || s.backUnits() < target) {
			if s.b == nil {
				if base, err := s.startBackend(opts); err != nil {
					// The backend cannot run on the system: the replay runs
					// alone before the error is returned.
					backOn, last, lastErr = false, base, err
					last.PrepassReason = reason
					if !replayOn {
						return s.seal(last, lastErr)
					}
					continue
				}
			}
			pause := backPause
			if !replayOn {
				pause = nil
			}
			bspan := span.Child(s.back.Engine)
			s.back.Slices++
			traceSlice(bspan, s.back.Slices, target, pause != nil)
			res, ended, err := s.b.run(ctx, bspan, pause)
			s.back.Units = s.b.units()
			if bspan != nil {
				bspan.SetAttr("units", s.back.Units)
				bspan.End()
			}
			res.PrepassReason = reason
			if err == nil && res.Complete {
				if rep != nil {
					res.PrepassReason = replayPending + " before the " + s.back.Engine + " decided"
				}
				s.back.Decided = true
				return s.seal(res, nil)
			}
			if err != nil {
				return s.seal(res, err)
			}
			if ended {
				// Undecided at its full cap.
				backOn, last = false, res
				if !replayOn {
					return s.seal(last, nil)
				}
			}
		}
	}
}

// sched is the state of one schedule: the round's target, the backend once
// started, and what each engine ran.
type sched struct {
	sys          *System
	span         *obs.Span
	target       int64
	b            backend
	replay, back EngineRun
}

// startBackend readies the backend opts select: unrolling, classification,
// and the checks that it can run on the system. It returns the Result the
// backend starts from, and an error when the backend cannot run.
func (s *sched) startBackend(opts Options) (Result, error) {
	work, res := prepareBackend(s.sys, opts, s.span, Result{EnvThreadBound: -1})
	if opts.Datalog {
		d := newDatalog(work, opts, res)
		if err := d.prepare(); err != nil {
			return res, err
		}
		s.b = d
		return res, nil
	}
	ver, err := newFixpoint(work, opts, s.span)
	if err != nil {
		return res, err
	}
	s.b = &fixpointBackend{work: work, base: res, search: ver.NewSearch()}
	return res, nil
}

// backUnits is the backend's spend so far: before its first slice, what it
// is charged for its start.
func (s *sched) backUnits() int64 {
	switch {
	case s.b != nil:
		return s.b.units()
	case s.back.Engine == "datalog":
		return datalogStartUnits
	}
	return 0
}

// prepassBase is the Result a prepass answer starts from: the prepass ran
// on the system itself.
func (s *sched) prepassBase() Result {
	return Result{EnvThreadBound: -1, Class: lang.Classify(s.sys)}
}

// stopBackend stops the backend and returns the Result a prepass answer
// starts from, with the backend's counters (zero when it never ran).
func (s *sched) stopBackend() Result {
	res := s.prepassBase()
	if s.b != nil {
		res.Stats = s.b.stop().Stats
	}
	return res
}

// seal lists the engines that ran in r's Schedule and records the schedule
// on the verify span.
func (s *sched) seal(r Result, err error) (Result, error) {
	runs := [2]EngineRun{s.replay, s.back}
	n := 0
	for _, e := range runs {
		if e.Slices > 0 {
			runs[n] = e
			n++
		}
	}
	if n > 0 {
		r.Schedule = append([]EngineRun(nil), runs[:n]...)
	}
	if span := s.span; span != nil {
		span.SetAttr("decided_by", r.DecidedBy)
		span.SetAttr("unsafe", r.Unsafe)
		span.SetAttr("complete", r.Complete)
		for _, e := range r.Schedule {
			span.SetAttr(e.Engine+"_slices", e.Slices)
			span.SetAttr(e.Engine+"_units", e.Units)
			span.SetAttr(e.Engine+"_decided", e.Decided)
		}
	}
	return r, err
}

// traceSlice records an engine's slice number and, when the slice pauses
// at a target, the target on its span.
func traceSlice(span *obs.Span, slice int, target int64, paused bool) {
	if span == nil {
		return
	}
	span.SetAttr("slice", slice)
	if paused {
		span.SetAttr("target", target)
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
