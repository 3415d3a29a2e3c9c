package simplified

import (
	"context"
	"runtime"
	"time"

	"paramra/internal/engine"
	"paramra/internal/obs"
)

// expOut is the result of expanding one macro-state: its successors (with
// pre-computed memo key bytes), any violation, and the expansion's stats, to
// be added up in commit order.
//
// Successor keys are carried as one concatenated byte arena (keyBuf sliced
// by keyEnds) rather than interned strings: commit admits via AddBytes, so a
// key is converted to a string only when its state is genuinely new.
//
// The engine keeps one expOut per frontier position and reuses it from
// layer to layer, so the arenas' capacity survives across layers. It holds
// only what commit genuinely needs; the heavy saturation scratch stays on
// the worker's exec.
type expOut struct {
	succs     []*state
	keyBuf    []byte
	keyEnds   []int32
	stats     Stats
	viol      *Violation
	violState *state
	// preDedup counts successors dropped during expansion because the seen
	// probe proved them already visited (reported via Admitter.AddDedup so
	// engine dedup totals stay identical to the unfiltered path).
	preDedup int64
}

// pushSucc appends a successor and its key bytes to the expansion output.
func (o *expOut) pushSucc(ns *state, key []byte) {
	o.succs = append(o.succs, ns)
	o.keyBuf = append(o.keyBuf, key...)
	o.keyEnds = append(o.keyEnds, int32(len(o.keyBuf)))
}

// reset empties a committed output for its next layer. It drops every
// state pointer, so a slot that no frontier position reaches again does not
// keep admitted macro-states alive, and keeps the arenas.
func (o *expOut) reset() {
	clear(o.succs)
	o.succs = o.succs[:0]
	o.keyBuf = o.keyBuf[:0]
	o.keyEnds = o.keyEnds[:0]
	o.stats = Stats{}
	o.viol, o.violState = nil, nil
	o.preDedup = 0
}

// VerifyContext runs the macro-state search — saturate env behaviour,
// branch over dis transitions, repeat — on the layered parallel engine.
// Verdicts, witnesses, statistics and §4.3 bounds are bit-identical for
// every worker count, and equal to those of a sequential breadth-first
// search: each layer is expanded concurrently, then successors are admitted
// sequentially in frontier order. Every message carries the provenance of
// the computation that reached its macro-state, and the key ignores it, so
// of two computations reaching one key the state admitted first keeps its
// read-log chains, the same state as in a 1-worker run.
//
// Cancellation (ctx) is the primary resource limit; Options.MaxMacroStates
// remains a secondary cap. On cancellation the partial Result carries
// Err = ctx.Err() and Complete = false.
//
// Engine.Wall and Engine.Workers are populated on every return path,
// including violations found while saturating the initial state.
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
// VerifyRound's budget. When admitted is non-nil, it is called from the
// sequential commit with every macro-state the search admits, the initial
// one included, in admission order.
func (v *Verifier) search(ctx context.Context, span *obs.Span, budget int, admitted func(*state)) Result {
	start := time.Now()
	workers := v.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

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
	// saturate wraps exec.saturate with an optional latency observation; it
	// is called concurrently from expansion workers (Observe is atomic).
	saturate := func(ex *exec, st *state) (*Violation, error) {
		if hSat == nil {
			return ex.saturate(st)
		}
		t0 := time.Now()
		viol, err := ex.saturate(st)
		hSat.Observe(int64(time.Since(t0)))
		return viol, err
	}

	global := v.fixpointExec(ctx)
	init := v.initState()

	satSpan := span.Child("init-saturate")
	initViol, initErr := saturate(global, init)
	if satSpan != nil {
		satSpan.SetAttr("env_configs", len(init.env.Configs))
		satSpan.SetAttr("env_msgs", len(init.env.Msgs))
		satSpan.End()
	}
	if initErr != nil {
		// Cancelled mid-saturation: the initial state is neither admitted
		// nor judged.
		return finish(Result{Stats: global.stats, Err: initErr,
			Engine: engine.Stats{Wall: time.Since(start), Workers: workers}})
	}
	if admitted != nil {
		admitted(init)
	}

	early := func(res Result) Result {
		res.Stats.MacroStates = 1
		res.Engine = engine.Stats{
			States:  1,
			Wall:    time.Since(start),
			Workers: workers,
		}
		return finish(res)
	}
	if initViol != nil {
		return early(global.unsafeResult(initViol, init))
	}
	if viol := global.checkGoalDis(init); viol != nil {
		return early(global.unsafeResult(viol, init))
	}

	newScratch := func() *exec { return v.fixpointExec(ctx) }
	expand := func(ex *exec, st *state, seen func([]byte) bool, o *expOut) {
		succs, viol := ex.disSuccessors(st)
		if viol != nil {
			o.viol, o.violState = viol, st
			o.stats, ex.stats = ex.stats, Stats{}
			return
		}
		enc := &ex.enc
		suffix := ex.sufBuf[:0] // parent's mem+env key suffix, filled lazily
		for _, ns := range succs {
			memChanged := ns.memChanged()
			if memChanged {
				// Successors with untouched dis memory inherit the parent's
				// env fixpoint, so their saturation is a provable no-op and
				// is skipped (see state.memChanged).
				viol, err := saturate(ex, ns)
				if err != nil {
					// Cancelled: the engine sees ctx's error after the
					// layer and commits none of it.
					break
				}
				if viol != nil {
					o.viol, o.violState = viol, ns
					break
				}
			}
			if memChanged {
				// The goal check is pure in the dis memory: an unchanged
				// memory has the parent's (already checked, goal-free) result.
				if viol := ex.checkGoalDis(ns); viol != nil {
					o.viol, o.violState = viol, ns
					break
				}
			}
			// Byte-probe the visited set (frozen for the whole layer) after
			// the goal checks: already-admitted successors are dropped here
			// without interning a key, and commit reports them via AddDedup.
			// A seen successor can never be the first violation: it was
			// admitted (and goal-checked) in an earlier layer.
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
			if seen(enc.Bytes()) {
				o.preDedup++
				ex.freeState(ns)
				continue
			}
			o.pushSucc(ns, enc.Bytes())
		}
		ex.sufBuf = suffix[:0]
		o.stats, ex.stats = ex.stats, Stats{}
	}

	commit := func(i int, st *state, o *expOut, adm *engine.Admitter[*state]) any {
		global.recordSizes(st)
		global.stats.merge(o.stats)
		adm.AddTransitions(int64(o.stats.DisTransitions))
		adm.AddDedup(o.preDedup)
		gCfg.Max(int64(global.stats.EnvConfigs))
		gMsgs.Max(int64(global.stats.EnvMsgs))
		// Successors discovered before a violation are admitted first, as a
		// sequential breadth-first search admits each saturated successor
		// before examining the next one, so stats match it on UNSAFE runs
		// too.
		lo := int32(0)
		for j, ns := range o.succs {
			hi := o.keyEnds[j]
			if adm.AddBytes(o.keyBuf[lo:hi], ns) && admitted != nil {
				admitted(ns)
			}
			lo = hi
		}
		viol, violState := o.viol, o.violState
		o.reset()
		if viol != nil {
			r := global.unsafeResult(viol, violState)
			return &r
		}
		return nil
	}

	cfg := engine.Config{
		Workers:   v.opts.Workers,
		MaxStates: v.opts.MaxMacroStates,
		Progress:  v.opts.Progress,
		Trace:     span,
		Metrics:   v.opts.Metrics,
	}
	if budget > 0 {
		cfg.MaxStates, cfg.StopAtCap, cfg.Progress = budget, true, nil
	}
	out := engine.Layered(ctx, cfg, init, init.key(), newScratch, expand, commit)

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
		Stats:    global.stats,
		Err:      out.Err,
	}
	res.Stats.MacroStates = int(out.Stats.States)
	res.Engine = out.Stats
	res.Engine.Transitions = int64(res.Stats.DisTransitions)
	return finish(res)
}
