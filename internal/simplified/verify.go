package simplified

import (
	"context"
	"errors"
	"fmt"

	"paramra/internal/engine"
	"paramra/internal/lang"
	"paramra/internal/obs"
)

// Errors returned by New.
var (
	// ErrEnvCAS rejects systems whose env threads use compare-and-swap: for
	// those, parameterized safety verification is undecidable (Theorem 1.1)
	// and the simplified semantics is not sound.
	ErrEnvCAS = errors.New("env program uses CAS: outside the decidable class (Theorem 1.1)")
	// ErrDisCyclic rejects systems with looping dis threads; the PSPACE
	// algorithm requires acyclic dis programs (§4). Use lang.UnrollSystem
	// for a bounded-model-checking under-approximation.
	ErrDisCyclic = errors.New("dis program has loops: unroll first (class requires dis(acyc))")
)

// Goal is a Message Generation query (§4.1): is a message (Var, Val, _)
// generatable? Safety verification reduces to MG by replacing `assert false`
// with a store of an otherwise-unused variable/value pair.
type Goal struct {
	Var lang.VarID
	Val lang.Val
}

// Options configures verification.
type Options struct {
	// MaxMacroStates caps the macro-state search (0 = unlimited). With
	// VerifyContext, the context deadline is the primary limit and this is
	// a secondary cap. A macro-state is an order class of integer states
	// (canonical timestamps, canon.go).
	MaxMacroStates int
	// Goal, when non-nil, switches from assert-reachability to the Message
	// Generation problem for the given (variable, value) pair.
	Goal *Goal
	// Progress, when non-nil, receives periodic engine stats snapshots
	// during VerifyContext.
	Progress func(engine.Stats)
	// Trace, when non-nil, is the parent span under which the verifier
	// records its phase spans: well-formedness (New), fixpoint,
	// init-saturate, and the engine's per-layer spans, in a deterministic
	// order.
	Trace *obs.Span
	// Metrics, when non-nil, receives verifier metrics (saturation
	// latencies and step counts, env-set high-water marks) on top of the
	// engine's gauges. Nil disables them at a pointer check per site.
	Metrics *obs.Registry
}

// Stats reports work done by the verifier.
type Stats struct {
	// MacroStates is the number of distinct (dis, dis memory) states, dis
	// timestamps taken up to order (canon.go).
	MacroStates int
	// DisTransitions is the number of dis transitions taken.
	DisTransitions int
	// EnvConfigs / EnvMsgs are the largest env-set sizes encountered.
	EnvConfigs int
	EnvMsgs    int
	// SaturationSteps counts the env CFG edges saturation takes, across
	// saturations: every edge out of a configuration's PC on its first pass
	// in a saturation, only its load edges on a later pass (DESIGN,
	// "Semi-naive env saturation").
	SaturationSteps int
}

// merge folds per-expansion stats into the run totals: counters add,
// high-water marks take the maximum.
func (s *Stats) merge(o Stats) {
	s.DisTransitions += o.DisTransitions
	s.SaturationSteps += o.SaturationSteps
	if o.EnvConfigs > s.EnvConfigs {
		s.EnvConfigs = o.EnvConfigs
	}
	if o.EnvMsgs > s.EnvMsgs {
		s.EnvMsgs = o.EnvMsgs
	}
}

// Violation describes how the safety violation (or goal message) arises.
type Violation struct {
	// ByEnv is true when an env thread fired the violating transition.
	ByEnv bool
	// DisIndex identifies the violating dis thread when ByEnv is false.
	DisIndex int
	// Log is the violating thread's read log (chronological via Keys).
	Log *ReadLog
	// GoalMsg is the generated goal message for MG queries.
	GoalMsg *AMsg
	// Env and Mem snapshot the configuration at the violation, enabling
	// dependency-graph reconstruction: the read logs name their messages
	// (Resolver). Each env message carries its provenance in its MsgEntry,
	// each dis message in its Ref and GenLog, all from the one computation
	// that reached the configuration.
	Env *EnvSet
	Mem *DisMem
	// DisLogs are the read logs of all dis threads at the violation.
	DisLogs []*ReadLog
}

// Result is the verification outcome.
type Result struct {
	// Unsafe is true when `assert false` is reachable (or the goal message
	// is generatable).
	Unsafe bool
	// Complete is true when the search exhausted the macro-state space.
	Complete  bool
	Stats     Stats
	Violation *Violation
	// Engine carries the engine-level counters (dedup hits, peak frontier,
	// wall time) of the run.
	Engine engine.Stats
	// Err is the context error when VerifyContext was cancelled, else nil.
	Err error
}

// Verifier decides parameterized safety for systems in the class
// env(nocas) ∥ dis_1(acyc) ∥ … ∥ dis_n(acyc) under the simplified semantics.
type Verifier struct {
	sys    *lang.System
	envCFG *lang.CFG
	// envLoads reports, per env PC, whether a load edge leaves it.
	envLoads []bool
	disCFG   []*lang.CFG
	budget   []int // per variable: usable integer timestamps are 1..budget[v]
	opts     Options
}

// New validates the system against the decidable class and prepares a
// verifier.
func New(sys *lang.System, opts Options) (*Verifier, error) {
	span := opts.Trace.Child("well-formedness")
	defer span.End()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	v := &Verifier{sys: sys, opts: opts}
	if sys.Env != nil {
		v.envCFG = lang.Compile(sys.Env)
		if !v.envCFG.CASFree() {
			return nil, fmt.Errorf("%s: %w", sys.Env.Name, ErrEnvCAS)
		}
		v.envLoads = make([]bool, len(v.envCFG.Out))
		for pc, edges := range v.envCFG.Out {
			for _, e := range edges {
				v.envLoads[pc] = v.envLoads[pc] || e.Op.Kind == lang.OpLoad
			}
		}
	}
	nv := len(sys.Vars)
	storeSum := make([]int, nv)
	for _, d := range sys.Dis {
		g := lang.Compile(d)
		if !g.Acyclic() {
			return nil, fmt.Errorf("%s: %w", d.Name, ErrDisCyclic)
		}
		v.disCFG = append(v.disCFG, g)
		for i, n := range g.CountStores(nv) {
			storeSum[i] += n
		}
	}
	v.budget = make([]int, nv)
	maxBudget := 0
	for i := range v.budget {
		// 2·S_v + 2 integer slots: any single run's order/adjacency pattern
		// of S_v dis stores embeds into {1..2·S_v+1} (greedy: plain stores
		// leave one free slot behind them for potential CAS successors).
		// Canonical timestamps use at most 2·S_v + 1 of them.
		v.budget[i] = 2*storeSum[i] + 2
		if v.budget[i] > maxBudget {
			maxBudget = v.budget[i]
		}
	}
	if span != nil {
		span.SetAttr("dis_threads", len(sys.Dis))
		span.SetAttr("vars", nv)
		span.SetAttr("max_ts_budget", maxBudget)
	}
	return v, nil
}

// Budget exposes the per-variable integer-timestamp budget (for tests and
// the Datalog encoder).
func (v *Verifier) Budget() []int { return append([]int(nil), v.budget...) }

// initState builds the initial macro-state and saturates it.
func (v *Verifier) initState() *state {
	nv := len(v.sys.Vars)
	st := &state{
		mem: *NewDisMem(nv, v.sys.Init),
		env: *NewEnvSet(nv),
	}
	for _, g := range v.disCFG {
		st.dis = append(st.dis, AThread{
			PC:   g.Entry,
			Regs: make([]lang.Val, g.Prog.NumRegs()),
			View: NewAView(nv),
		})
	}
	if v.envCFG != nil {
		st.env.AddConfig(AThread{
			PC:   v.envCFG.Entry,
			Regs: make([]lang.Val, v.envCFG.Prog.NumRegs()),
			View: NewAView(nv),
		})
	}
	return st
}

// exec is the mutable context of a search: its statistics and the scratch
// its expansions reuse. A fixpoint search runs on one exec from its
// initial saturation to its result.
type exec struct {
	v *Verifier
	// ctx, when non-nil, is polled by saturate.
	ctx context.Context
	// canon selects canonical timestamps (canon.go): the fixpoint's search
	// sets it, the skeleton walk keeps integer timestamps.
	canon bool
	stats Stats
	// satPops counts saturation worklist pops, to space out context polls.
	satPops int
	// renum is canonicalize's scratch.
	renum renumbering
	// Reusable scratch for saturation worklists (configuration positions),
	// their per-position slots and load-target enumeration, so
	// per-successor saturations don't re-allocate them.
	satWork  []int32
	satSlots []satSlot
	ltBuf    []loadTarget
	// outBuf backs disSuccessors' result slice; it is consumed within the
	// expansion. Admitted successor states escape into the next layer —
	// only the slice header is recycled.
	outBuf []*state
	// mv is the move eachDisMove fills and yields.
	mv disMove
	// sufBuf caches the parent's memory key suffix within one expansion
	// (see state.appendKeyMem).
	sufBuf []byte
	// enc and enc2 are embedded key-encoder scratch: enc serves the
	// saturation config probes and the successor key of the expansion
	// loops, enc2 the parent key suffix. Embedding them keeps the hot
	// paths off the shared encoder pool.
	enc  engine.KeyEnc
	enc2 engine.KeyEnc
	// freeStates recycles the state structs of successors the visited set
	// or the cap keeps out: most clones are duplicates and die at once, so
	// reusing their ~300-byte structs removes the dominant allocation of
	// the exploration.
	// Parked structs are scrubbed of pointers (see freeState) so the list
	// never extends a dead macro-state's lifetime.
	freeStates []*state
}

// fixpointExec is an exec of the fixpoint's search: canonical timestamps,
// saturations that stop when ctx is cancelled.
func (v *Verifier) fixpointExec(ctx context.Context) *exec {
	return &exec{v: v, ctx: ctx, canon: true}
}

// cloneState is state.clone drawing the struct from the exec's freelist
// when possible. The dis slice reuses the recycled struct's capacity.
func (ex *exec) cloneState(s *state) *state {
	n := len(ex.freeStates)
	if n == 0 {
		return s.clone()
	}
	ns := ex.freeStates[n-1]
	ex.freeStates[n-1] = nil
	ex.freeStates = ex.freeStates[:n-1]
	ns.mem = s.mem
	ns.env = s.env
	if len(s.dis) <= len(ns.disInline) {
		ns.dis = ns.disInline[:len(s.dis)]
	} else if cap(ns.dis) >= len(s.dis) {
		ns.dis = ns.dis[:len(s.dis)]
	} else {
		ns.dis = make([]AThread, len(s.dis))
	}
	copy(ns.dis, s.dis)
	ns.mem.shared = true
	ns.env.shared = true
	return ns
}

// freeState parks a successor's struct that was not admitted for reuse. All pointer
// fields are scrubbed first: a parked struct may idle across GC cycles, and
// a stale reference would keep the dropped state's thawed memory or env
// storage alive.
func (ex *exec) freeState(ns *state) {
	if len(ex.freeStates) >= 256 {
		return
	}
	ns.mem = DisMem{}
	ns.env = EnvSet{}
	heap := ns.dis
	ns.dis = nil
	ns.disInline = [2]AThread{}
	if len(heap) > len(ns.disInline) {
		clear(heap)
		ns.dis = heap[:0]
	}
	ex.freeStates = append(ex.freeStates, ns)
}

func (ex *exec) recordSizes(st *state) {
	if n := len(st.env.Configs); n > ex.stats.EnvConfigs {
		ex.stats.EnvConfigs = n
	}
	if n := len(st.env.Msgs); n > ex.stats.EnvMsgs {
		ex.stats.EnvMsgs = n
	}
}

// unsafeResult finalizes an UNSAFE verdict found at state st.
func (ex *exec) unsafeResult(viol *Violation, st *state) Result {
	ex.recordSizes(st)
	viol.Env = &st.env
	viol.Mem = &st.mem
	for _, d := range st.dis {
		viol.DisLogs = append(viol.DisLogs, d.Log)
	}
	return Result{Unsafe: true, Complete: true, Stats: ex.stats, Violation: viol}
}

// goalHit checks an individual message against the MG goal.
func (v *Verifier) goalHit(m AMsg) bool {
	return v.opts.Goal != nil && m.Var == v.opts.Goal.Var && m.Val == v.opts.Goal.Val
}

// checkGoalDis scans dis memory for the goal message (init messages count:
// a goal equal to the initial value is trivially generated). The violation
// takes the message's own provenance.
func (ex *exec) checkGoalDis(st *state) *Violation {
	if ex.v.opts.Goal == nil {
		return nil
	}
	for _, m := range st.mem.VarMsgs(ex.v.opts.Goal.Var) {
		if ex.v.goalHit(m) {
			dis := 0
			if m.Ref.Kind == RefDis {
				dis = int(m.Ref.ID)
			}
			return &Violation{ByEnv: false, DisIndex: dis, Log: m.GenLog, GoalMsg: &m}
		}
	}
	return nil
}
