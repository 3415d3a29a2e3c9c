package paramra

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paramra/internal/absint"
	"paramra/internal/analysis"
	"paramra/internal/datalog"
	"paramra/internal/depgraph"
	"paramra/internal/encode"
	"paramra/internal/engine"
	"paramra/internal/lang"
	"paramra/internal/obs"
	"paramra/internal/ra"
	"paramra/internal/simplified"
)

// Core types re-exported from the language package.
type (
	// System is a parameterized system: shared variables, a data domain,
	// an env program and dis programs.
	System = lang.System
	// Program is a single thread's code.
	Program = lang.Program
	// SystemClass is the paper-notation classification of a system.
	SystemClass = lang.SystemClass
	// DependencyGraph is the Definition 1 dependency graph of a violation.
	DependencyGraph = depgraph.Graph
)

// Errors surfaced by Verify.
var (
	// ErrEnvCAS marks systems whose env threads use CAS (undecidable class,
	// Theorem 1.1).
	ErrEnvCAS = simplified.ErrEnvCAS
	// ErrDisCyclic marks systems with looping dis threads; set
	// Options.UnrollDis for a bounded under-approximation.
	ErrDisCyclic = simplified.ErrDisCyclic
)

// Parse reads a system in concrete syntax.
func Parse(src string) (*System, error) { return lang.ParseSystem(src) }

// ParseFile reads a system from a file. Syntax errors are prefixed with the
// file name, in the usual "file:line:col: message" shape.
func ParseFile(path string) (*System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sys, err := Parse(string(data))
	if err != nil {
		var syn *lang.SyntaxError
		if errors.As(err, &syn) {
			return nil, fmt.Errorf("%s:%w", path, err)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sys, nil
}

// Format renders a system back into concrete syntax.
func Format(sys *System) string { return lang.Print(sys) }

// ThreadType is a single thread's classification (acyc/nocas) in the
// paper's notation.
type ThreadType = lang.ThreadType

// Classify computes the system class signature, e.g.
// "env(nocas) || dis_1(acyc)".
func Classify(sys *System) SystemClass { return lang.Classify(sys) }

// ClassifyProgram computes the type of a single thread program.
func ClassifyProgram(p *Program) ThreadType { return lang.ClassifyProgram(p) }

// Unroll returns a copy of the system with every dis-thread loop unrolled k
// times (a bounded-model-checking under-approximation; env loops are
// handled exactly by the verifier and left untouched).
func Unroll(sys *System, k int) *System { return lang.UnrollSystem(sys, k) }

// Diagnostic is one static-analysis finding (see cmd/ravet).
type Diagnostic = analysis.Diagnostic

// SliceStats reports the size reduction achieved by Slice.
type SliceStats = analysis.SliceStats

// Analyze runs the static lint rules over the system — the constant-
// propagation rules of internal/analysis plus the abstract-interpretation
// rules of internal/absint — and returns the merged findings sorted by
// source position. Callers that know the source file should set
// Diagnostic.File before printing.
func Analyze(sys *System) []Diagnostic {
	out := analysis.AnalyzeSystem(sys)
	out = append(out, absint.Lint(sys, out)...)
	analysis.SortDiagnostics(out)
	return out
}

// Slice returns a smaller system with the same parameterized safety verdict:
// it drops assignments to dead registers, statements at unreachable PCs,
// stores to write-only shared variables, and unused registers and variables.
// Variables named in keepVars survive even when removable (pass the goal
// variable of a Message Generation query). The input is not mutated.
func Slice(sys *System, keepVars ...string) (*System, SliceStats) {
	return analysis.Slice(sys, analysis.SliceOptions{KeepVars: keepVars})
}

// Goal switches verification to the Message Generation problem (§4.1): can
// a message with the given variable and value be generated?
type Goal struct {
	Var string
	Val int
}

// Options configures the verification entry points. The zero value is a
// sensible default: unlimited search, GOMAXPROCS workers, no progress
// reporting.
type Options struct {
	// MaxMacroStates caps the macro-state search of the fixpoint backend
	// (0 = unlimited). The context deadline is the primary resource limit;
	// this is a secondary cap.
	MaxMacroStates int
	// MaxStates caps concrete-instance exploration (VerifyInstance,
	// ConfirmViolation, FindDeadlocks; 0 = unlimited — beware, loops make
	// concrete state spaces infinite in general). It also caps the
	// prepass's replay instances, but never above the prepass's own default
	// of 30,000 states.
	MaxStates int
	// Goal, when non-nil, asks Message Generation instead of assert
	// reachability.
	Goal *Goal
	// UnrollDis, when positive, unrolls looping dis threads this many times
	// before verification (making the result an under-approximation for
	// such systems).
	UnrollDis int
	// Datalog selects the makeP → Datalog backend (Theorem 4.1) instead of
	// the integrated fixpoint engine. Slower; exposed for cross-checking
	// and experiments.
	Datalog bool
	// Prepass runs the static abstract-interpretation prepass first and
	// returns its verdict (Result.DecidedBy = "prepass") when it is
	// decisive, skipping the state-space search entirely. Sound on both
	// sides: SAFE proofs hold for every replica count (including systems
	// outside the decidable fragment), UNSAFE witnesses are concrete
	// replays. See Prepass for the standalone entry point.
	Prepass bool
	// DatalogHints grounds the Datalog encoding with abstract-value register
	// hints even when Prepass is off — the fuzz oracle uses it to exercise
	// the hinted grounding without the verdict fast path in front of it.
	// Prepass implies it.
	DatalogHints bool
	// MaxSkeletons caps dis-run enumeration for the Datalog backend
	// (0 = the default cap of 100,000 skeletons).
	MaxSkeletons int
	// Parallelism is the number of worker goroutines (0 = GOMAXPROCS).
	// Verdicts, witnesses and §4.3 bounds of the fixpoint backend are
	// identical for every value.
	Parallelism int
	// Progress, when non-nil, receives periodic statistics snapshots from a
	// dedicated goroutine while a search runs. The last emission, sent just
	// before the entry point returns, is exactly the returned Stats.
	Progress func(Stats)
	// Tracer, when non-nil, records the run's phase spans — parse is the
	// caller's, then well-formedness, unroll, fixpoint/datalog/concrete
	// search, engine layers — as JSONL events (see internal/obs and the
	// -trace-out CLI flag). Span IDs are deterministic at any Parallelism.
	//
	// When both Tracer and TraceSpan are nil, the entry points consult the
	// context: a span installed with obs.WithSpan (or a tracer installed
	// with obs.WithTracer) scopes the run's spans to the caller — this is
	// how the HTTP server attaches every engine/datalog/absint span to the
	// request that caused it without widening any signature. Explicit
	// Options win over the context.
	Tracer *obs.Tracer
	// TraceSpan, when non-nil, nests the entry point's root span under an
	// existing parent (e.g. a CLI-level span) instead of starting a new
	// trace root on Tracer.
	TraceSpan *obs.Span
	// Metrics, when non-nil, receives live counters, gauges and histograms
	// of the run (exposed in Prometheus/expvar form via -metrics-addr).
	// When nil, a registry installed with obs.WithMetrics on the context is
	// used instead.
	Metrics *obs.Registry
	// Cache, when non-nil, enables the content-addressed verdict cache for
	// Verify: the system is sliced (Slice), canonicalized modulo renaming
	// of threads/registers/variables and dis order, and the verdict is
	// looked up under the SHA-256 of the canonical form plus the
	// verdict-affecting options. On a miss the canonical system is
	// verified (so witnesses and classes are in canonical names and
	// hits/misses render identically) and complete, error-free results are
	// stored. Concurrent misses of one key share a single computation.
	// Hits return Result.CacheHit = true with zero Stats and a nil Graph.
	Cache *Cache
	// memoKey carries the canonical system hash into the backends so
	// sub-problem results (dis-run skeleton enumerations) can be memoized
	// across option variants of the same family. Set only by verifyCached.
	memoKey string
}

// numericOptions lists the range-limited numeric knobs exactly once, so the
// lenient library-level clamp (normalized) and the strict caller-facing
// check (Validate) can never disagree about which fields are limited or what
// their zero value means.
var numericOptions = []struct {
	field string
	zero  string // meaning of the zero value, for error messages
	get   func(*Options) *int
}{
	{"MaxMacroStates", "unlimited", func(o *Options) *int { return &o.MaxMacroStates }},
	{"MaxStates", "unlimited", func(o *Options) *int { return &o.MaxStates }},
	{"MaxSkeletons", fmt.Sprintf("the default cap of %d", defaultMaxSkeletons), func(o *Options) *int { return &o.MaxSkeletons }},
	{"Parallelism", "GOMAXPROCS", func(o *Options) *int { return &o.Parallelism }},
	{"UnrollDis", "no unrolling", func(o *Options) *int { return &o.UnrollDis }},
}

// OptionError reports one out-of-range Options field from Validate. Field is
// the Go field name (which doubles as the wire-API knob name modulo casing),
// so callers building HTTP 400 responses or CLI diagnostics can point at the
// exact offending knob.
type OptionError struct {
	// Field is the Options field name, e.g. "MaxStates".
	Field string
	// Value is the rejected value.
	Value int
	// Reason states the violated constraint, e.g. "must be ≥ 0 (0 = unlimited)".
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("paramra: Options.%s = %d: %s", e.Field, e.Value, e.Reason)
}

// Validate reports every out-of-range numeric option as a *OptionError
// (multiple violations are combined with errors.Join, so errors.As finds the
// first and errors.Is matching works per-field). The library entry points do
// not require a Validate call — they clamp silently, see normalized — but
// strict frontends (the HTTP server, the CLIs) use it to reject bad knobs
// with a field-level message instead of silently reinterpreting them.
func (o Options) Validate() error {
	var errs []error
	for _, f := range numericOptions {
		if v := *f.get(&o); v < 0 {
			errs = append(errs, &OptionError{
				Field:  f.field,
				Value:  v,
				Reason: fmt.Sprintf("must be ≥ 0 (0 = %s)", f.zero),
			})
		}
	}
	return errors.Join(errs...)
}

// normalized clamps out-of-range numeric options to their documented
// defaults: every negative cap or worker count behaves exactly like 0
// (unlimited / GOMAXPROCS / no unrolling). Every entry point applies it
// first, so all backends interpret the same Options identically. Frontends
// that must not clamp call Validate instead.
func (o Options) normalized() Options {
	for _, f := range numericOptions {
		if p := f.get(&o); *p < 0 {
			*p = 0
		}
	}
	return o
}

// beginSpan opens an entry point's root span: a child of TraceSpan when
// set, else a new root on Tracer, else a child/root of whatever the context
// carries (obs.WithSpan / obs.WithTracer). Nothing anywhere yields a nil
// (no-op) span, so disabled tracing stays a pointer check plus two context
// lookups per entry point — not per span site; nested spans branch on the
// parent pointer alone.
func (o Options) beginSpan(ctx context.Context, name string) *obs.Span {
	if o.TraceSpan != nil {
		return o.TraceSpan.Child(name)
	}
	if o.Tracer != nil {
		return o.Tracer.Start(name, nil)
	}
	if s := obs.SpanFrom(ctx); s != nil {
		return s.Child(name)
	}
	if t := obs.TracerFrom(ctx); t != nil {
		return t.Start(name, nil)
	}
	return nil
}

// metrics resolves the run's registry: explicit Options first, then the
// context (obs.WithMetrics). Both nil yields a nil (no-op) registry.
func (o Options) metrics(ctx context.Context) *obs.Registry {
	if o.Metrics != nil {
		return o.Metrics
	}
	return obs.MetricsFrom(ctx)
}

// Stats reports verifier work. Each backend populates its own field group
// (plus the shared engine group); see the package documentation for the
// exact matrix.
type Stats struct {
	// Fixpoint backend (simplified semantics).
	MacroStates     int
	DisTransitions  int
	EnvConfigs      int
	EnvMsgs         int
	SaturationSteps int

	// Concrete backend (full RA semantics of a fixed instance).
	States      int
	Transitions int

	// Datalog backend (makeP, Theorem 4.1). FixpointRounds and DatalogAtoms
	// sum over the evaluated query instances; under parallelism with an
	// UNSAFE early exit the sums cover the instances evaluated before the
	// first hit.
	Skeletons      int
	DatalogFacts   int
	DatalogRules   int
	FixpointRounds int
	DatalogAtoms   int

	// Shared parallel-engine counters.
	DedupHits    int64
	PeakFrontier int64
	Wall         time.Duration
	Workers      int
}

// fromEngine maps engine-level counters into the shared group.
func (s *Stats) fromEngine(es engine.Stats) {
	s.DedupHits = es.DedupHits
	s.PeakFrontier = es.PeakFrontier
	s.Wall = es.Wall
	s.Workers = es.Workers
}

// fixpointProgress adapts a Stats progress callback for the fixpoint
// backend's engine.
func fixpointProgress(p func(Stats)) func(engine.Stats) {
	if p == nil {
		return nil
	}
	return func(es engine.Stats) {
		var s Stats
		s.MacroStates = int(es.States)
		s.fromEngine(es)
		p(s)
	}
}

// concreteProgress adapts a Stats progress callback for the concrete
// backend's engine.
func concreteProgress(p func(Stats)) func(engine.Stats) {
	if p == nil {
		return nil
	}
	return func(es engine.Stats) {
		var s Stats
		s.States = int(es.States)
		s.Transitions = int(es.Transitions)
		s.fromEngine(es)
		p(s)
	}
}

// Result is the verification outcome.
type Result struct {
	// Unsafe is true when some instance reaches `assert false` (or
	// generates the goal message).
	Unsafe bool
	// Complete is false when a search limit was hit before a verdict.
	Complete bool
	// Class is the system's classification.
	Class SystemClass
	// Underapprox is true when dis loops were unrolled, so a SAFE verdict
	// only covers the unrolled behaviours.
	Underapprox bool
	// Stats reports verifier work (all backends; see Stats).
	Stats Stats
	// EnvThreadBound is the §4.3 cost bound on the number of env threads
	// sufficient to reproduce the violation (-1 when not applicable).
	EnvThreadBound int64
	// Graph is the dependency graph of the violation (fixpoint backend,
	// unsafe verdicts only).
	Graph *DependencyGraph
	// Witness lists the messages read by the violating thread, in order
	// (fixpoint backend, unsafe verdicts only), or the confirming
	// interleaving's events when the prepass decided.
	Witness []string
	// DecidedBy names the component that produced the verdict: "prepass",
	// "fixpoint", or "datalog".
	DecidedBy string
	// PrepassReason is the prepass's one-line justification when
	// Options.Prepass was set (populated on inconclusive outcomes too, so
	// callers can see why the fast path did not fire).
	PrepassReason string
	// CacheHit is true when the verdict was served from Options.Cache
	// (including a result shared with a concurrent identical request)
	// rather than computed by this call. Cached results carry zero Stats
	// and no Graph.
	CacheHit bool
}

// Verify decides parameterized safety for the system. The context carries
// the primary resource limit: on cancellation or deadline the partial
// Result (Complete = false) is returned together with the context error.
func Verify(ctx context.Context, sys *System, opts Options) (Result, error) {
	opts = opts.normalized()
	res, err := verifyCached(ctx, sys, opts)
	// The terminal Progress emission is exactly the returned Stats, for
	// every backend and on every path (including errors).
	if opts.Progress != nil {
		opts.Progress(res.Stats)
	}
	return res, err
}

func verify(ctx context.Context, sys *System, opts Options) (Result, error) {
	span := opts.beginSpan(ctx, "verify")
	defer span.End()

	res := Result{EnvThreadBound: -1}
	if opts.Prepass {
		// The prepass runs on the original system, before any unrolling, so
		// a SAFE proof covers the true semantics rather than the bounded
		// under-approximation.
		pspan := span.Child("prepass")
		out, err := prepass(ctx, sys, opts, pspan)
		pspan.End()
		if err != nil {
			res.Class = lang.Classify(sys)
			return res, err
		}
		var done bool
		if res, done = applyPrepass(res, out); done {
			res.Class = lang.Classify(sys)
			if span != nil {
				span.SetAttr("decided_by", "prepass")
				span.SetAttr("unsafe", res.Unsafe)
				span.SetAttr("complete", res.Complete)
			}
			return res, nil
		}
	}
	work := sys
	if opts.UnrollDis > 0 {
		cls := lang.Classify(sys)
		needs := false
		for _, d := range cls.Dis {
			if !d.Acyclic {
				needs = true
			}
		}
		if needs {
			us := span.Child("unroll")
			work = lang.UnrollSystem(sys, opts.UnrollDis)
			if us != nil {
				us.SetAttr("k", opts.UnrollDis)
				us.End()
			}
			res.Underapprox = true
		}
	}
	res.Class = lang.Classify(work)
	if span != nil {
		span.SetAttr("class", res.Class.String())
		if opts.Datalog {
			span.SetAttr("backend", "datalog")
		} else {
			span.SetAttr("backend", "fixpoint")
		}
	}
	seal := func(r Result) Result {
		if span != nil {
			span.SetAttr("unsafe", r.Unsafe)
			span.SetAttr("complete", r.Complete)
		}
		return r
	}

	if opts.Datalog {
		res.DecidedBy = "datalog"
		r, err := verifyDatalog(ctx, work, opts, res, span)
		return seal(r), err
	}
	res.DecidedBy = "fixpoint"

	var goal *simplified.Goal
	if opts.Goal != nil {
		v, ok := work.VarByName(opts.Goal.Var)
		if !ok {
			return res, fmt.Errorf("paramra: unknown goal variable %q", opts.Goal.Var)
		}
		goal = &simplified.Goal{Var: v, Val: lang.Val(opts.Goal.Val)}
	}
	ver, err := simplified.New(work, simplified.Options{
		MaxMacroStates: opts.MaxMacroStates,
		Goal:           goal,
		Workers:        opts.Parallelism,
		Progress:       fixpointProgress(opts.Progress),
		Trace:          span,
		Metrics:        opts.metrics(ctx),
	})
	if err != nil {
		return res, err
	}
	out := ver.VerifyContext(ctx)
	res.Unsafe = out.Unsafe
	res.Complete = out.Complete
	res.Stats = Stats{
		MacroStates:     out.Stats.MacroStates,
		DisTransitions:  out.Stats.DisTransitions,
		EnvConfigs:      out.Stats.EnvConfigs,
		EnvMsgs:         out.Stats.EnvMsgs,
		SaturationSteps: out.Stats.SaturationSteps,
	}
	res.Stats.fromEngine(out.Engine)
	if out.Err != nil {
		return seal(res), out.Err
	}
	if out.Unsafe && out.Violation != nil {
		res.Witness = out.Violation.Log.Keys()
		if g, err := depgraph.FromViolation(work, out.Violation); err == nil {
			res.Graph = g
			res.EnvThreadBound = g.CostGoal()
		}
	}
	return seal(res), nil
}

// defaultMaxSkeletons is the Datalog backend's skeleton cap when
// Options.MaxSkeletons is 0.
const defaultMaxSkeletons = 100_000

func (o Options) hinted() bool { return o.Prepass || o.DatalogHints }

// DatalogInstances returns, in order, the ground query instances that Verify
// with Options.Datalog evaluates for sys — same skeleton cap, same grounding
// — and whether the skeleton enumeration behind them was exhaustive. It
// runs no prepass, unrolling or cache lookup; radatalog's -dump and -stats
// list these instances one by one.
func DatalogInstances(ctx context.Context, sys *System, opts Options) ([]*encode.Problem, bool, error) {
	opts = opts.normalized()
	if opts.MaxSkeletons == 0 {
		opts.MaxSkeletons = defaultMaxSkeletons
	}
	// With the prepass on, the abstract value sets double as grounding
	// hints: registers range only over the values they can hold at each env
	// PC, shrinking the instances without changing derivability. The facts
	// must describe the exact system encoded (post-slice, post-unroll), so
	// they are recomputed here, not reused from the verdict prepass.
	var hints encode.Hints
	if opts.hinted() {
		if ef := absint.Analyze(sys).EnvFacts(); ef != nil {
			hints = ef
		}
	}
	return encode.All(ctx, sys, opts.MaxSkeletons, hints)
}

// verifyDatalog runs the makeP → Datalog backend: one query instance per
// dis-run skeleton, evaluated ∃-style (first derivable goal wins). The
// instances are independent, so they are evaluated by Parallelism workers;
// the verdict is deterministic regardless. Stats.Wall and Stats.Workers are
// populated on every path, including encoding errors and cancellation.
func verifyDatalog(ctx context.Context, sys *System, opts Options, res Result, span *obs.Span) (Result, error) {
	if opts.Goal != nil {
		return res, errors.New("paramra: the Datalog backend supports assert-reachability only")
	}
	start := time.Now()
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	seal := func(r Result) Result {
		r.Stats.Wall = time.Since(start)
		r.Stats.Workers = workers
		return r
	}
	dspan := span.Child("datalog")
	defer dspan.End()

	// The ground query instances depend only on the (canonical) system,
	// the skeleton cap, the unroll depth, and whether hints are on — so
	// within a cache-enabled pipeline they are memoized across option
	// variants of the same program family. The memoized slice is shared
	// read-only: QueryCtx never mutates a Problem.
	var memoKey string
	if opts.Cache != nil && opts.memoKey != "" {
		memoKey = fmt.Sprintf("skel|%s|%d|%d|%t", opts.memoKey, opts.UnrollDis, opts.MaxSkeletons, opts.hinted())
	}
	var (
		ps       []*encode.Problem
		complete bool
		memoHit  bool
	)
	enc := dspan.Child("skeleton-enumeration")
	if memoKey != "" {
		if m, ok := opts.Cache.MemoGet(memoKey); ok {
			sm := m.(skeletonMemo)
			ps, complete, memoHit = sm.ps, sm.complete, true
		}
	}
	if !memoHit {
		var err error
		ps, complete, err = DatalogInstances(ctx, sys, opts)
		if err != nil {
			if enc != nil {
				enc.End()
			}
			return seal(res), err
		}
		if memoKey != "" {
			opts.Cache.MemoPut(memoKey, skeletonMemo{ps: ps, complete: complete})
		}
	}
	if enc != nil {
		enc.SetAttr("skeletons", len(ps))
		enc.SetAttr("complete", complete)
		enc.SetAttr("memo", memoHit)
		enc.End()
	}
	res.Stats.Skeletons = len(ps)
	for _, p := range ps {
		for _, r := range p.Prog.Rules {
			if r.IsFact() {
				res.Stats.DatalogFacts++
			} else {
				res.Stats.DatalogRules++
			}
		}
	}

	if workers > len(ps) && len(ps) > 0 {
		workers = len(ps)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var hInst, hRound *obs.Histogram
	var cInst, cRounds, cAtoms *obs.Counter
	if m := opts.metrics(ctx); m != nil {
		hInst = m.Histogram("paramra_datalog_instance_ns",
			"wall time per Datalog query instance (ns)")
		hRound = m.Histogram("paramra_datalog_round_ns",
			"wall time per semi-naive delta round (ns)")
		cInst = m.Counter("paramra_datalog_instances_total",
			"Datalog query instances evaluated")
		cRounds = m.Counter("paramra_datalog_rounds_total",
			"semi-naive fixpoint rounds across instances")
		cAtoms = m.Counter("paramra_datalog_atoms_total",
			"ground atoms derived across instances")
	}
	var roundHook datalog.RoundHook
	if hRound != nil {
		roundHook = func(d time.Duration) { hRound.Observe(int64(d)) }
	}

	// Live counters for the progress ticker; folded into res.Stats after
	// the workers join.
	var rounds, atoms, instances atomic.Int64
	snapshot := func() Stats {
		s := res.Stats
		s.FixpointRounds = int(rounds.Load())
		s.DatalogAtoms = int(atoms.Load())
		s.Wall = time.Since(start)
		s.Workers = workers
		return s
	}
	var stopProg chan struct{}
	if opts.Progress != nil {
		stopProg = make(chan struct{})
		go func() {
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopProg:
					return
				case <-tick.C:
					opts.Progress(snapshot())
				}
			}
		}()
	}

	eval := dspan.Child("datalog-eval")
	var (
		next      atomic.Int64
		unsafeHit atomic.Bool
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ps) || cctx.Err() != nil {
					return
				}
				var t0 time.Time
				if hInst != nil {
					t0 = time.Now()
				}
				// Context-aware query: cancellation (deadline or another
				// worker's unsafe hit) aborts a long evaluation mid-round
				// instead of letting it run to fixpoint. A true answer from
				// an aborted run is still a valid derivation.
				hit, st, _ := datalog.QueryCtx(cctx, ps[i].Prog, ps[i].Goal, roundHook)
				if hInst != nil {
					hInst.Observe(int64(time.Since(t0)))
				}
				rounds.Add(int64(st.Rounds))
				atoms.Add(int64(st.Atoms))
				instances.Add(1)
				cInst.Inc()
				cRounds.Add(int64(st.Rounds))
				cAtoms.Add(int64(st.Atoms))
				if hit {
					unsafeHit.Store(true)
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	if stopProg != nil {
		close(stopProg)
	}
	res.Stats.FixpointRounds = int(rounds.Load())
	res.Stats.DatalogAtoms = int(atoms.Load())
	res.Unsafe = unsafeHit.Load()
	res.Complete = res.Unsafe || complete
	if eval != nil {
		eval.SetAttr("instances_evaluated", instances.Load())
		eval.SetAttr("rounds", res.Stats.FixpointRounds)
		eval.SetAttr("atoms", res.Stats.DatalogAtoms)
		eval.SetAttr("workers", workers)
		eval.SetAttr("unsafe", res.Unsafe)
		eval.End()
	}
	if err := ctx.Err(); err != nil && !res.Unsafe {
		res.Complete = false
		return seal(res), err
	}
	return seal(res), nil
}

// ConfirmError reports a failed ConfirmViolation search. It is returned
// (wrapped in the error interface) when no concrete instance within the
// tried env-thread bound could be confirmed; given Theorem 3.4 this
// indicates the caps were too small, not a false alarm.
type ConfirmError struct {
	// BoundTried is the largest env-thread count searched (the §4.3 bound
	// capped at the caller's maxN).
	BoundTried int64
	// StateCapHit is true when at least one instance search was truncated
	// by Options.MaxStates, so raising the state cap may confirm.
	StateCapHit bool
	// Err is the underlying context error when the search was cancelled.
	Err error
}

func (e *ConfirmError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("paramra: confirmation interrupted within %d env threads: %v", e.BoundTried, e.Err)
	}
	if e.StateCapHit {
		return fmt.Sprintf("paramra: no confirmation within %d env threads (state cap hit; raise maxStates)", e.BoundTried)
	}
	return fmt.Sprintf("paramra: no confirmation within %d env threads (raise maxN)", e.BoundTried)
}

func (e *ConfirmError) Unwrap() error { return e.Err }

// ConfirmViolation independently validates an UNSAFE verdict: it searches
// for a concrete instance (under the full RA semantics of Figure 2) that
// exhibits the violation, trying env thread counts up to the §4.3 cost
// bound capped at maxN. It returns the confirming thread count and the
// interleaving witness; on failure the error is a *ConfirmError carrying
// the tried bound and whether the state cap truncated a search.
func ConfirmViolation(ctx context.Context, sys *System, res Result, maxN int, opts Options) (int, string, error) {
	opts = opts.normalized()
	if !res.Unsafe {
		return 0, "", errors.New("paramra: result is not a violation")
	}
	hi := int64(maxN)
	if res.EnvThreadBound >= 0 && res.EnvThreadBound < hi {
		hi = res.EnvThreadBound
	}
	if sys.Env == nil {
		hi = 0
	}
	span := opts.beginSpan(ctx, "confirm-violation")
	defer span.End()
	if span != nil {
		span.SetAttr("env_thread_bound", hi)
	}
	limitHit := false
	for n := 0; n <= int(hi); n++ {
		inst, err := ra.NewInstance(sys, n)
		if err != nil {
			return 0, "", err
		}
		out := inst.ExploreContext(ctx, ra.Limits{
			MaxStates: opts.MaxStates,
			Workers:   opts.Parallelism,
			Progress:  concreteProgress(opts.Progress),
			Trace:     span,
			Metrics:   opts.metrics(ctx),
		})
		if out.Unsafe {
			if span != nil {
				span.SetAttr("confirmed_env_threads", n)
			}
			return n, ra.FormatWitness(out.Witness), nil
		}
		if out.Err != nil {
			return 0, "", &ConfirmError{BoundTried: hi, StateCapHit: limitHit, Err: out.Err}
		}
		if !out.Complete {
			limitHit = true
		}
	}
	return 0, "", &ConfirmError{BoundTried: hi, StateCapHit: limitHit}
}

// DeadlockResult classifies the sink states of a fixed instance.
type DeadlockResult struct {
	// Deadlocks counts reachable states with no enabled transition where
	// some thread has not finished (e.g. stuck in an assume).
	Deadlocks int
	// Terminal counts states where every thread finished its program.
	Terminal int
	// Complete is true when the state space was exhausted.
	Complete bool
	// Example renders one deadlocked state; StuckThreads names its
	// unfinished threads.
	Example      string
	StuckThreads []string
}

// FindDeadlocks explores the fixed instance with nEnv env threads under the
// concrete RA semantics and classifies its sink states. Counts (and the
// reported example, canonicalized to the smallest state key) are identical
// for every Options.Parallelism.
func FindDeadlocks(ctx context.Context, sys *System, nEnv int, opts Options) (DeadlockResult, error) {
	opts = opts.normalized()
	inst, err := ra.NewInstance(sys, nEnv)
	if err != nil {
		return DeadlockResult{}, err
	}
	span := opts.beginSpan(ctx, "find-deadlocks")
	defer span.End()
	rep := inst.FindDeadlocksContext(ctx, ra.Limits{
		MaxStates: opts.MaxStates,
		Workers:   opts.Parallelism,
		Progress:  concreteProgress(opts.Progress),
		Trace:     span,
		Metrics:   opts.metrics(ctx),
	})
	if err := ctx.Err(); err != nil {
		return DeadlockResult{}, err
	}
	return DeadlockResult{
		Deadlocks: rep.Deadlocks, Terminal: rep.Terminal, Complete: rep.Complete,
		Example: rep.Example, StuckThreads: rep.StuckThreads,
	}, nil
}

// Inventory computes the full Message Generation relation of §4.1: for
// every shared variable, the set of values some generatable message
// carries. Keys are variable names; asserts are inert during the analysis.
func Inventory(ctx context.Context, sys *System, opts Options) (map[string][]int, error) {
	opts = opts.normalized()
	span := opts.beginSpan(ctx, "inventory")
	defer span.End()
	v, err := simplified.New(sys, simplified.Options{
		MaxMacroStates: opts.MaxMacroStates,
		Workers:        opts.Parallelism,
		Progress:       fixpointProgress(opts.Progress),
		Trace:          span,
		Metrics:        opts.metrics(ctx),
	})
	if err != nil {
		return nil, err
	}
	inv, _, complete := v.InventoryContext(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !complete {
		return nil, errors.New("paramra: inventory search hit the state cap")
	}
	out := make(map[string][]int, len(sys.Vars))
	for vi, name := range sys.Vars {
		var vals []int
		for d := 0; d < sys.Dom; d++ {
			if inv[lang.VarID(vi)][lang.Val(d)] {
				vals = append(vals, d)
			}
		}
		out[name] = vals
	}
	return out, nil
}

// InstanceResult is the outcome of exploring one fixed instance under the
// concrete RA semantics.
type InstanceResult struct {
	Unsafe   bool
	Complete bool
	States   int
	// Stats carries the concrete and engine counter groups.
	Stats Stats
	// Witness is a violating interleaving rendered one event per line.
	Witness string
}

// VerifyInstance explores the concrete RA state space of the instance with
// nEnv environment threads, bounded by Options.MaxStates and the context.
// As with Verify, the last Progress emission is exactly the returned Stats.
func VerifyInstance(ctx context.Context, sys *System, nEnv int, opts Options) (InstanceResult, error) {
	opts = opts.normalized()
	res, err := verifyInstance(ctx, sys, nEnv, opts)
	if opts.Progress != nil {
		opts.Progress(res.Stats)
	}
	return res, err
}

func verifyInstance(ctx context.Context, sys *System, nEnv int, opts Options) (InstanceResult, error) {
	inst, err := ra.NewInstance(sys, nEnv)
	if err != nil {
		return InstanceResult{}, err
	}
	span := opts.beginSpan(ctx, "verify-instance")
	defer span.End()
	if span != nil {
		span.SetAttr("env_threads", nEnv)
	}
	out := inst.ExploreContext(ctx, ra.Limits{
		MaxStates: opts.MaxStates,
		Workers:   opts.Parallelism,
		Progress:  concreteProgress(opts.Progress),
		Trace:     span,
		Metrics:   opts.metrics(ctx),
	})
	res := InstanceResult{
		Unsafe:   out.Unsafe,
		Complete: out.Complete,
		States:   out.States,
		Witness:  ra.FormatWitness(out.Witness),
	}
	res.Stats.States = out.States
	res.Stats.Transitions = out.Transitions
	res.Stats.fromEngine(out.Engine)
	if span != nil {
		span.SetAttr("unsafe", res.Unsafe)
		span.SetAttr("complete", res.Complete)
	}
	if out.Err != nil {
		return res, out.Err
	}
	return res, nil
}
