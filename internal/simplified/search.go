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
	return v.search(ctx, span, nil)
}

// search runs the macro-state search in one slice, recording on span (which
// the caller ends). When admitted is non-nil, it is called with every
// macro-state the search admits, the initial one included, in admission
// order.
func (v *Verifier) search(ctx context.Context, span *obs.Span, admitted func(*state)) Result {
	res, _ := v.newSearch(admitted).Run(ctx, span, nil)
	return res
}

// Search is VerifyContext's search as a resumable value, for a caller's
// schedule: it keeps its exec, frontier and visited set between the slices
// its Run calls make, and pauses only between two expansions, never inside
// a saturation, so the search in slices is the search in one slice, with
// the same verdict, witness and Stats.
type Search struct {
	v        *Verifier
	ex       *exec
	admitted func(*state)
	start    time.Time
	hSat     *obs.Histogram
	gCfg     *obs.Gauge
	gMsgs    *obs.Gauge
	// eng is the engine once begun.
	eng   engine.LayeredSearch[*state]
	begun bool
	// res is the result once ended.
	res   Result
	ended bool
}

// NewSearch prepares the macro-state search of VerifyContext. Nothing runs
// before the first Run.
func (v *Verifier) NewSearch() *Search { return v.newSearch(nil) }

func (v *Verifier) newSearch(admitted func(*state)) *Search {
	s := &Search{v: v, ex: v.newExec(nil), admitted: admitted}
	if m := v.opts.Metrics; m != nil {
		s.hSat = m.Histogram("paramra_fixpoint_saturate_ns",
			"wall time per env-set saturation to fixpoint (ns)")
		s.gCfg = m.Gauge("paramra_fixpoint_env_configs",
			"high-water mark of abstract env configurations in a macro-state")
		s.gMsgs = m.Gauge("paramra_fixpoint_env_msgs",
			"high-water mark of abstract env messages in a macro-state")
	}
	return s
}

// Work is the work the search has done so far: the macro-states it
// admitted and the saturation steps it took.
func (s *Search) Work() (macroStates, saturationSteps int) {
	switch {
	case s.ended:
		return s.res.Stats.MacroStates, s.res.Stats.SaturationSteps
	case s.begun:
		return int(s.eng.States()), s.ex.stats.SaturationSteps
	}
	return 0, s.ex.stats.SaturationSteps
}

// Run continues the search, recording on span (which the caller opens and
// ends). The first Run saturates the initial macro-state. Run returns the
// result and true once the search has ended (Complete, Unsafe, capped or
// cancelled), or, when pause (nil = never) reports true before an
// expansion, the counters so far and false: the next Run resumes there.
// Once ended, Run returns the same result again.
func (s *Search) Run(ctx context.Context, span *obs.Span, pause func() bool) (Result, bool) {
	if s.ended {
		return s.res, true
	}
	s.ex.ctx = ctx
	if !s.begun {
		if res, ended := s.begin(span); ended {
			return s.end(span, res), true
		}
	}
	out, ended := s.eng.Run(ctx, span, pause)
	res := s.result(out)
	if ended {
		return s.end(span, res), true
	}
	traceResult(span, res)
	return res, false
}

// Stop ends a search that has not ended, as a caller that will not resume
// it, for the counters so far; its Progress reports them last.
func (s *Search) Stop() Result {
	if !s.ended {
		var out engine.Outcome
		if s.begun {
			out.Stats = s.eng.Stop()
		}
		s.res, s.ended = s.result(out), true
	}
	return s.res
}

// saturate is exec.saturate with an optional latency observation.
func (s *Search) saturate(st *state) (*Violation, error) {
	if s.hSat == nil {
		return s.ex.saturate(st)
	}
	t0 := time.Now()
	viol, err := s.ex.saturate(st)
	s.hSat.Observe(int64(time.Since(t0)))
	return viol, err
}

// begin saturates and judges the initial macro-state, and readies the
// engine from it unless that already ends the search.
func (s *Search) begin(span *obs.Span) (Result, bool) {
	s.start = time.Now()
	ex := s.ex
	init := s.v.initState()
	satSpan := span.Child("init-saturate")
	initViol, initErr := s.saturate(init)
	if satSpan != nil {
		satSpan.SetAttr("env_configs", len(init.env.Configs))
		satSpan.SetAttr("env_msgs", len(init.env.Msgs))
		satSpan.End()
	}
	if initErr != nil {
		// Cancelled mid-saturation: the initial state is neither admitted
		// nor judged.
		return Result{Stats: ex.stats, Err: initErr,
			Engine: engine.Stats{Wall: time.Since(s.start)}}, true
	}
	if s.admitted != nil {
		s.admitted(init)
	}
	early := func(res Result) (Result, bool) {
		res.Stats.MacroStates = 1
		res.Engine = engine.Stats{States: 1, Wall: time.Since(s.start)}
		return res, true
	}
	if initViol != nil {
		return early(ex.unsafeResult(initViol, init))
	}
	if viol := ex.checkGoalDis(init); viol != nil {
		return early(ex.unsafeResult(viol, init))
	}
	s.eng = engine.NewLayered(engine.Config{
		MaxStates: s.v.opts.MaxMacroStates,
		Progress:  s.v.opts.Progress,
		Metrics:   s.v.opts.Metrics,
	}, init, init.key(), s.expand)
	s.begun = true
	return Result{}, false
}

// expand is the engine's expansion of st; see step.
func (s *Search) expand(st *state, adm *engine.Admitter[*state]) any {
	viol, at := s.step(st, adm)
	s.gCfg.Max(int64(s.ex.stats.EnvConfigs))
	s.gMsgs.Max(int64(s.ex.stats.EnvMsgs))
	if viol == nil {
		return nil
	}
	r := s.ex.unsafeResult(viol, at)
	return &r
}

// step expands st: it builds each successor, saturates and judges it, and
// admits it, in enumeration order, so the successors found before a
// violation are admitted first. It returns the first violation and the
// state it was found at.
func (s *Search) step(st *state, adm *engine.Admitter[*state]) (*Violation, *state) {
	ex := s.ex
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
			sv, err := s.saturate(ns)
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
		} else if s.admitted != nil {
			s.admitted(ns)
		}
	}
	ex.sufBuf = suffix[:0]
	return viol, at
}

// result renders an engine outcome, final or at a pause, as a Result.
func (s *Search) result(out engine.Outcome) Result {
	if unsafeRes, ok := out.HaltTag.(*Result); ok {
		res := *unsafeRes
		res.Stats.MacroStates = int(out.Stats.States)
		res.Engine = out.Stats
		res.Engine.Transitions = int64(res.Stats.DisTransitions)
		return res
	}
	res := Result{
		Complete: out.Complete,
		Stats:    s.ex.stats,
		Err:      out.Err,
	}
	res.Stats.MacroStates = int(out.Stats.States)
	res.Engine = out.Stats
	res.Engine.Transitions = int64(res.Stats.DisTransitions)
	return res
}

// end records res as the search's result and on span.
func (s *Search) end(span *obs.Span, res Result) Result {
	s.res, s.ended = res, true
	traceResult(span, res)
	return res
}

// traceResult records a result, final or at a pause, on span.
func traceResult(span *obs.Span, res Result) {
	if span == nil {
		return
	}
	span.SetAttr("macro_states", res.Stats.MacroStates)
	span.SetAttr("dis_transitions", res.Stats.DisTransitions)
	span.SetAttr("env_configs", res.Stats.EnvConfigs)
	span.SetAttr("env_msgs", res.Stats.EnvMsgs)
	span.SetAttr("saturation_steps", res.Stats.SaturationSteps)
	span.SetAttr("unsafe", res.Unsafe)
	span.SetAttr("complete", res.Complete)
}
