package simplified

import (
	"context"
	"runtime"
	"sync"
	"time"

	"paramra/internal/engine"
	"paramra/internal/obs"
)

// expOut is the result of expanding one macro-state: its successors (with
// pre-computed memo key bytes), any violation, and the expansion's stats and
// provenance overlay (handed off from the exec, see exec.handOff) to be
// merged in commit order.
//
// Successor keys are carried as one concatenated byte arena (keyBuf sliced
// by keyEnds) rather than interned strings: commit admits via AddBytes, so a
// key is converted to a string only when its state is genuinely new.
//
// The engine buffers a whole layer's outputs until the sequential commit
// phase, so an expOut holds only what commit genuinely needs; the heavy
// saturation scratch stays on the exec, which is released as soon as the
// expansion ends. Outputs are recycled through a run-scoped outCache so the
// arenas' capacity survives across layers.
type expOut struct {
	succs     []*state
	keyBuf    []byte
	keyEnds   []int32
	stats     Stats
	msgLogs   map[string]DisGen
	msgOrder  []string
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

// outCache recycles expansion outputs within one run. Commit returns each
// output after consuming it, so the cache's steady-state size is the number
// of outputs the engine holds between an expansion finishing and its commit
// running — bounded by the largest frontier, but each entry is small (slice
// headers plus key bytes), unlike a full exec.
type outCache struct {
	mu   sync.Mutex
	free []*expOut
}

func (c *outCache) get() *expOut {
	c.mu.Lock()
	n := len(c.free)
	if n == 0 {
		c.mu.Unlock()
		return &expOut{}
	}
	o := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	c.mu.Unlock()
	return o
}

func (c *outCache) put(o *expOut) {
	clear(o.succs)
	o.succs = o.succs[:0]
	o.keyBuf = o.keyBuf[:0]
	o.keyEnds = o.keyEnds[:0]
	o.stats = Stats{}
	// Keep the (cleared) overlay map and order slice: handOff swaps them
	// back onto the next exec, so overlay storage round-trips between the
	// two caches instead of being reallocated per expansion.
	if o.msgLogs != nil {
		clear(o.msgLogs)
	}
	clear(o.msgOrder[:cap(o.msgOrder)])
	o.msgOrder = o.msgOrder[:0]
	o.viol, o.violState = nil, nil
	o.preDedup = 0
	c.mu.Lock()
	c.free = append(c.free, o)
	c.mu.Unlock()
}

// VerifyContext runs the macro-state search — saturate env behaviour,
// branch over dis transitions, repeat — on the layered parallel engine.
// Verdicts, witnesses, statistics and §4.3 bounds are bit-identical for
// every worker count, and equal to those of a sequential breadth-first
// search: each layer is expanded concurrently against a frozen provenance
// map (every expansion works on a private overlay), then the overlays are
// merged and successors admitted sequentially in frontier order, so the
// first derivation of every message — and with it every read-log chain — is
// the same as in a 1-worker run.
//
// Cancellation (ctx) is the primary resource limit; Options.MaxMacroStates
// remains a secondary cap. On cancellation the partial Result carries
// Err = ctx.Err() and Complete = false.
//
// Engine.Wall and Engine.Workers are populated on every return path,
// including violations found while saturating the initial state.
func (v *Verifier) VerifyContext(ctx context.Context) Result {
	return v.search(ctx, nil)
}

// search is the macro-state search behind VerifyContext and
// InventoryContext. When admitted is non-nil, it is called from the
// sequential commit with every macro-state the search admits, the initial
// one included, in admission order.
func (v *Verifier) search(ctx context.Context, admitted func(*state)) Result {
	start := time.Now()
	workers := v.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	span := v.opts.Trace.Child("fixpoint")
	finish := func(res Result) Result {
		if span != nil {
			span.SetAttr("macro_states", res.Stats.MacroStates)
			span.SetAttr("dis_transitions", res.Stats.DisTransitions)
			span.SetAttr("env_configs", res.Stats.EnvConfigs)
			span.SetAttr("env_msgs", res.Stats.EnvMsgs)
			span.SetAttr("saturation_steps", res.Stats.SaturationSteps)
			span.SetAttr("unsafe", res.Unsafe)
			span.SetAttr("complete", res.Complete)
			span.End()
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
	saturate := func(ex *exec, st *state) *Violation {
		if hSat == nil {
			return ex.saturate(st)
		}
		t0 := time.Now()
		viol := ex.saturate(st)
		hSat.Observe(int64(time.Since(t0)))
		return viol
	}

	global := newExec(v, nil)
	cache := &execCache{}
	outs := &outCache{}
	init := v.initState()

	satSpan := span.Child("init-saturate")
	initViol := saturate(global, init)
	if satSpan != nil {
		satSpan.SetAttr("env_configs", len(init.env.Configs))
		satSpan.SetAttr("env_msgs", len(init.env.Msgs))
		satSpan.End()
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

	var unsafeRes *Result

	expand := func(st *state, seen func([]byte) bool) *expOut {
		// Private exec: reads the frozen global provenance, writes locally.
		// checkGoalDis never needs a same-layer sibling's record — any dis
		// message in st's memory was stored either on st's own path (already
		// merged into the global map when st was admitted in an earlier
		// layer) or by this very expansion. The exec is released at the end
		// of this function (handOff), so the number of live execs tracks the
		// in-flight expansions, not the layer size.
		ex := cache.get(v, global.msgLogs)
		o := outs.get()
		succs, viol := ex.disSuccessors(st)
		if viol != nil {
			o.viol, o.violState = viol, st
			ex.handOff(o, cache)
			return o
		}
		enc := &ex.enc
		suffix := ex.sufBuf[:0] // parent's mem+env key suffix, filled lazily
		for _, ns := range succs {
			memChanged := ns.memChanged()
			if memChanged {
				// Successors with untouched dis memory inherit the parent's
				// env fixpoint, so their saturation is a provable no-op and
				// is skipped (see state.memChanged).
				if viol := saturate(ex, ns); viol != nil {
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
				ns.appendKeyMemEnv(enc)
			} else {
				// Untouched memory and env: the key suffix equals the
				// parent's, encoded at most once per expansion.
				if len(suffix) == 0 {
					ex.enc2.Reset()
					st.appendKeyMemEnv(&ex.enc2)
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
		ex.handOff(o, cache)
		return o
	}

	commit := func(i int, st *state, o *expOut, adm *engine.Admitter[*state]) any {
		global.recordSizes(st)
		global.mergeOut(o)
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
		outs.put(o)
		if viol != nil {
			// Re-resolve provenance against the merged map so an earlier
			// commit's first derivation wins, exactly as sequentially.
			if viol.GoalMsg != nil && !viol.ByEnv {
				gen := global.lookupGen(viol.GoalMsg.Key())
				viol.DisIndex, viol.Log = gen.DisIndex, gen.Log
			}
			r := global.unsafeResult(viol, violState)
			unsafeRes = &r
			return &r
		}
		return nil
	}

	out := engine.Layered(ctx, engine.Config{
		Workers:   v.opts.Workers,
		MaxStates: v.opts.MaxMacroStates,
		Progress:  v.opts.Progress,
		Trace:     span,
		Metrics:   v.opts.Metrics,
	}, init, init.key(), expand, commit)

	if unsafeRes != nil {
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
