package simplified

import (
	"context"
	"time"

	"paramra/internal/engine"
	"paramra/internal/obs"
)

// VerifyContext runs the macro-state search — saturate env behaviour,
// branch over dis transitions, repeat — as a breadth-first search on the
// layered engine. Every message carries the provenance of the computation
// that reached its macro-state, and the key ignores it, so of two
// computations reaching one key the state admitted first keeps its
// read-log chains.
//
// Cancellation (ctx) is the primary resource limit; Options.MaxMacroStates
// remains a secondary cap. On cancellation the partial Result carries
// Err = ctx.Err() and Complete = false.
//
// Engine.Wall is populated on every return path, including violations
// found while saturating the initial state.
func (v *Verifier) VerifyContext(ctx context.Context) Result {
	span := v.opts.Trace.Child("fixpoint")
	defer span.End()
	return v.VerifyRound(ctx, span, 0)
}

// VerifyRound is VerifyContext as one round of a caller's schedule, on a
// verifier built once. It records on span, a "fixpoint" span the caller
// opens and ends. A positive budget replaces Options.MaxMacroStates, and
// the round then reports no Progress and stops, undecided, at the first
// macro-state the budget keeps out: a budgeted round that decides is
// exactly the unbudgeted search, with the same verdict, witness and Stats.
func (v *Verifier) VerifyRound(ctx context.Context, span *obs.Span, budget int) Result {
	return v.search(ctx, span, budget, nil)
}

// search is the macro-state search behind VerifyRound and
// InventoryContext, recording on span (which the caller ends), with
// VerifyRound's budget. When admitted is non-nil, it is called with every
// macro-state the search admits, the initial one included, in admission
// order.
func (v *Verifier) search(ctx context.Context, span *obs.Span, budget int, admitted func(*state)) Result {
	start := time.Now()

	finish := func(res Result) Result {
		if span != nil {
			span.SetAttr("macro_states", res.Stats.MacroStates)
			span.SetAttr("dis_transitions", res.Stats.DisTransitions)
			span.SetAttr("env_configs", res.Stats.EnvConfigs)
			span.SetAttr("env_msgs", res.Stats.EnvMsgs)
			span.SetAttr("saturation_steps", res.Stats.SaturationSteps)
			span.SetAttr("unsafe", res.Unsafe)
			span.SetAttr("complete", res.Complete)
		}
		return res
	}

	var hSat *obs.Histogram
	var gCfg, gMsgs *obs.Gauge
	if m := v.opts.Metrics; m != nil {
		hSat = m.Histogram("paramra_fixpoint_saturate_ns",
			"wall time per env-set saturation to fixpoint (ns)")
		gCfg = m.Gauge("paramra_fixpoint_env_configs",
			"high-water mark of abstract env configurations in a macro-state")
		gMsgs = m.Gauge("paramra_fixpoint_env_msgs",
			"high-water mark of abstract env messages in a macro-state")
	}
	ex := v.newExec(ctx)
	// saturate wraps exec.saturate with an optional latency observation.
	saturate := func(st *state) (*Violation, error) {
		if hSat == nil {
			return ex.saturate(st)
		}
		t0 := time.Now()
		viol, err := ex.saturate(st)
		hSat.Observe(int64(time.Since(t0)))
		return viol, err
	}

	init := v.initState()
	satSpan := span.Child("init-saturate")
	initViol, initErr := saturate(init)
	if satSpan != nil {
		satSpan.SetAttr("env_configs", len(init.env.Configs))
		satSpan.SetAttr("env_msgs", len(init.env.Msgs))
		satSpan.End()
	}
	if initErr != nil {
		// Cancelled mid-saturation: the initial state is neither admitted
		// nor judged.
		return finish(Result{Stats: ex.stats, Err: initErr,
			Engine: engine.Stats{Wall: time.Since(start)}})
	}
	if admitted != nil {
		admitted(init)
	}

	early := func(res Result) Result {
		res.Stats.MacroStates = 1
		res.Engine = engine.Stats{States: 1, Wall: time.Since(start)}
		return finish(res)
	}
	if initViol != nil {
		return early(ex.unsafeResult(initViol, init))
	}
	if viol := ex.checkGoalDis(init); viol != nil {
		return early(ex.unsafeResult(viol, init))
	}

	// step expands st: it builds each successor, saturates and judges it,
	// and admits it, in enumeration order, so the successors found before
	// a violation are admitted first. It returns the first violation and
	// the state it was found at.
	step := func(st *state, adm *engine.Admitter[*state]) (*Violation, *state) {
		ex.recordSizes(st)
		before := ex.stats.DisTransitions
		succs, viol := ex.disSuccessors(st)
		adm.AddTransitions(int64(ex.stats.DisTransitions - before))
		if viol != nil {
			return viol, st
		}
		enc := &ex.enc
		suffix := ex.sufBuf[:0] // parent's mem+env key suffix, filled lazily
		var at *state
		for _, ns := range succs {
			memChanged := ns.memChanged()
			if memChanged {
				// Successors with untouched dis memory inherit the parent's
				// env fixpoint and its (already checked, goal-free) goal
				// result, so their saturation and goal check are skipped
				// (see state.memChanged).
				sv, err := saturate(ns)
				if err != nil {
					// Cancelled: ns is neither admitted nor judged, and the
					// engine ends the run with ctx's error.
					break
				}
				if sv == nil {
					sv = ex.checkGoalDis(ns)
				}
				if sv != nil {
					viol, at = sv, ns
					break
				}
			}
			enc.Reset()
			ns.appendKeyDis(enc)
			if memChanged {
				ns.appendKeyMem(enc)
			} else {
				// Untouched memory: the key suffix equals the parent's,
				// encoded at most once per expansion.
				if len(suffix) == 0 {
					ex.enc2.Reset()
					st.appendKeyMem(&ex.enc2)
					suffix = append(suffix, ex.enc2.Bytes()...)
				}
				enc.Raw(suffix)
			}
			if !adm.AddBytes(enc.Bytes(), ns) {
				// A duplicate, or kept out by the cap: nothing refers to
				// it, so its struct is reused.
				ex.freeState(ns)
			} else if admitted != nil {
				admitted(ns)
			}
		}
		ex.sufBuf = suffix[:0]
		return viol, at
	}
	expand := func(st *state, adm *engine.Admitter[*state]) any {
		viol, at := step(st, adm)
		gCfg.Max(int64(ex.stats.EnvConfigs))
		gMsgs.Max(int64(ex.stats.EnvMsgs))
		if viol == nil {
			return nil
		}
		r := ex.unsafeResult(viol, at)
		return &r
	}

	cfg := engine.Config{
		MaxStates: v.opts.MaxMacroStates,
		Progress:  v.opts.Progress,
		Trace:     span,
		Metrics:   v.opts.Metrics,
	}
	if budget > 0 {
		cfg.MaxStates, cfg.StopAtCap, cfg.Progress = budget, true, nil
	}
	out := engine.Layered(ctx, cfg, init, init.key(), expand)

	if unsafeRes, ok := out.HaltTag.(*Result); ok {
		res := *unsafeRes
		res.Stats.MacroStates = int(out.Stats.States)
		res.Engine = out.Stats
		res.Engine.Transitions = int64(res.Stats.DisTransitions)
		return finish(res)
	}
	res := Result{
		Unsafe:   false,
		Complete: out.Complete,
		Stats:    ex.stats,
		Err:      out.Err,
	}
	res.Stats.MacroStates = int(out.Stats.States)
	res.Engine = out.Stats
	res.Engine.Transitions = int64(res.Stats.DisTransitions)
	return finish(res)
}
