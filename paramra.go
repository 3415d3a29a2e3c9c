package paramra

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

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

// Analyze runs the static lint rules of internal/analysis over the system
// and returns the findings sorted by source position. Callers that know the
// source file should set Diagnostic.File before printing.
func Analyze(sys *System) []Diagnostic { return analysis.AnalyzeSystem(sys) }

// Slice returns a smaller system with the same parameterized safety verdict:
// it drops assignments to dead registers, statements the value analysis
// proves unreachable, assumes that always hold, stores to write-only shared
// variables, and unused registers and variables.
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
// sensible default: unlimited search, no progress reporting. Every backend
// searches on the calling goroutine.
type Options struct {
	// MaxMacroStates caps the macro-state search of the fixpoint backend
	// (0 = unlimited), counted in order classes of dis timestamps (see the
	// package documentation). The context deadline is the primary resource
	// limit; this is a secondary cap.
	MaxMacroStates int
	// MaxStates caps concrete-instance exploration (VerifyInstance,
	// ConfirmViolation, FindDeadlocks; 0 = unlimited — beware, loops make
	// concrete state spaces infinite in general). It also caps each
	// instance of the prepass replay, but never above the prepass's own
	// default of 30,000 states; that is the replay's full cap, which
	// Verify's prepass schedule (see Prepass) reaches only when the backend
	// has not decided before.
	MaxStates int
	// Goal, when non-nil, asks Message Generation instead of assert
	// reachability.
	Goal *Goal
	// UnrollDis, when positive, unrolls looping dis threads this many times
	// before verification (making the result an under-approximation for
	// such systems).
	UnrollDis int
	// Datalog selects the makeP → Datalog backend (Theorem 4.1) instead of
	// the integrated fixpoint engine, for cross-checking and experiments.
	// It evaluates the model of the program its query instances share once,
	// then the skeleton walk's DFS tree once per step, each step as a
	// continuation of its parent's model, and stops at the first instance
	// whose query holds.
	Datalog bool
	// Prepass runs the static abstract-interpretation prepass and returns
	// its verdict (Result.DecidedBy = "prepass") when it is decisive. Sound
	// on both sides: SAFE proofs hold for every replica count (including
	// systems outside the decidable fragment), UNSAFE witnesses are
	// concrete replays. Verify runs the abstract SAFE check first, then the
	// concrete replay and the backend in slices under one work meter,
	// until one decides: each round raises a common target (16, 32, 64, …
	// units of about 1 µs of work), and the replay, then the backend, runs
	// until its own spend reaches it. An engine keeps its frontier between
	// its slices and pauses only between two expansions, so an answer is
	// the one its engine gives run alone, and the meter, which counts work
	// and never time, decides only which engine answers, the same way on
	// every run. An engine that ends undecided at its full cap leaves the
	// other to run alone. Goal queries have no replay. Result.Schedule
	// lists what each engine ran. See Prepass for the standalone entry
	// point.
	Prepass bool
	// MaxSkeletons caps the Datalog backend's skeleton walk (0 = the
	// default cap of 100,000 skeletons).
	MaxSkeletons int
	// Progress, when non-nil, receives periodic statistics snapshots from a
	// dedicated goroutine while a search runs. The last emission, sent just
	// before the entry point returns, is exactly the returned Stats, and no
	// counter in a snapshot is below the one before. With Prepass the
	// snapshots are the backend's, from its first slice on, and Verify's
	// Stats are the backend's counters when the schedule stopped, zero when
	// the backend never ran.
	Progress func(Stats)
	// Tracer, when non-nil, records the run's phase spans — parse is the
	// caller's, then well-formedness, unroll, fixpoint/datalog/concrete
	// search, engine layers — as JSONL events (see internal/obs and the
	// -trace-out CLI flag). Span IDs are deterministic.
	Tracer *obs.Tracer
	// TraceSpan, when non-nil, nests the entry point's root span under an
	// existing parent (e.g. a CLI-level span) instead of starting a new
	// trace root on Tracer.
	TraceSpan *obs.Span
	// Metrics, when non-nil, receives live counters, gauges and histograms
	// of the run (exposed in Prometheus/expvar form via -metrics-addr).
	Metrics *obs.Registry
	// Cache, when non-nil, enables the content-addressed verdict cache for
	// Verify: the system is canonicalized modulo renaming of
	// threads/registers/variables and dis order, and the verdict is looked
	// up under the SHA-256 of the canonical form plus the verdict-affecting
	// options. On a miss the canonical system is verified (so witnesses and
	// classes are in canonical names and hits/misses render identically)
	// and complete, error-free results are stored. Concurrent misses of one
	// key share a single computation. Hits return Result.CacheHit = true
	// with zero Stats and a nil Graph.
	Cache *Cache
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
// defaults: every negative cap behaves exactly like 0 (unlimited, the
// default skeleton cap, no unrolling). Every entry point applies it
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
// set, else a new root on Tracer. Both nil yields a nil (no-op) span, so
// disabled tracing costs two pointer checks per entry point; nested spans
// branch on the parent pointer alone.
func (o Options) beginSpan(name string) *obs.Span {
	if o.TraceSpan != nil {
		return o.TraceSpan.Child(name)
	}
	return o.Tracer.Start(name, nil)
}

// Stats reports verifier work. Each backend populates its own field group
// (plus the shared engine group); see the package documentation for the
// exact matrix.
type Stats struct {
	// Fixpoint backend (simplified semantics).
	MacroStates    int
	DisTransitions int
	EnvConfigs     int
	EnvMsgs        int
	// SaturationSteps counts the env CFG edges the fixpoint's env-set
	// saturations take: all of a configuration's edges on its first pass in
	// a saturation, only its load edges on each later pass, which tries
	// them against the env messages new since its previous pass.
	SaturationSteps int

	// Concrete backend (full RA semantics of a fixed instance).
	States      int
	Transitions int

	// Datalog backend (makeP, Theorem 4.1). The counters cover the query
	// instances up to and including the first UNSAFE one in skeleton-walk
	// order (all of them when none is): Skeletons counts them; DatalogFacts
	// and DatalogRules count each one's whole program, its shared prefix
	// included; FixpointRounds sums the continuation rounds of the steps
	// they evaluated, each step of the walk's DFS tree once (the shared
	// prefix's model is evaluated once and not counted); DatalogAtoms sums
	// the sizes of their models, the shared model included, where the
	// UNSAFE instance's is its chain's at the step that derived the goal.
	Skeletons      int
	DatalogFacts   int
	DatalogRules   int
	FixpointRounds int
	DatalogAtoms   int

	// Shared engine counters.
	DedupHits    int64
	PeakFrontier int64
	Wall         time.Duration
}

// fromEngine maps engine-level counters into the shared group, for the
// fixpoint and the concrete explorer.
func (s *Stats) fromEngine(es engine.Stats) {
	s.DedupHits = es.DedupHits
	s.PeakFrontier = es.PeakFrontier
	s.Wall = es.Wall
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
	// rather than computed by this call. Cached results carry zero Stats,
	// no Schedule and no Graph.
	CacheHit bool
	// Schedule lists the engines the call ran, in the order of their first
	// slices: with Options.Prepass the concrete replay ("prepass") and the
	// backend, when each ran, otherwise the backend alone, in one slice.
	Schedule []EngineRun
}

// EngineRun is one engine's part in a Verify call: the slices it ran, the
// work units it spent (DESIGN, "One meter for every engine") and whether
// its answer is the Result's.
type EngineRun struct {
	// Engine is "prepass" (the concrete replay), "fixpoint" or "datalog".
	Engine  string
	Slices  int
	Units   int64
	Decided bool
}

// String renders the run as "fixpoint: 2 slices, 37 units, decided".
func (e EngineRun) String() string {
	s := fmt.Sprintf("%s: %d slice", e.Engine, e.Slices)
	if e.Slices != 1 {
		s += "s"
	}
	s += fmt.Sprintf(", %d units", e.Units)
	if e.Decided {
		s += ", decided"
	}
	return s
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
	span := opts.beginSpan("verify")
	defer span.End()
	if opts.Prepass {
		return schedule(ctx, sys, opts, span)
	}

	work, res := prepareBackend(sys, opts, span, Result{EnvThreadBound: -1})
	seal := func(r Result) Result {
		if span != nil {
			span.SetAttr("unsafe", r.Unsafe)
			span.SetAttr("complete", r.Complete)
		}
		return r
	}
	if opts.Datalog {
		d, r, err := verifyDatalog(ctx, work, opts, res, span)
		if d.insts != nil {
			r.Schedule = []EngineRun{{Engine: "datalog", Slices: 1, Units: d.units(),
				Decided: err == nil && r.Complete}}
		}
		return seal(r), err
	}
	ver, err := newFixpoint(work, opts, span)
	if err != nil {
		return res, err
	}
	r, err := fixpointResult(res, work, ver.VerifyContext(ctx))
	r.Schedule = []EngineRun{{Engine: "fixpoint", Slices: 1,
		Units:   fixpointUnits(r.Stats.MacroStates, r.Stats.SaturationSteps),
		Decided: err == nil && r.Complete}}
	return seal(r), err
}

// prepareBackend readies sys for the decision procedure: it unrolls
// looping dis threads when Options.UnrollDis asks, then classifies the
// system the backend will decide, labels the verify span with it and
// names the backend in res.DecidedBy.
func prepareBackend(sys *System, opts Options, span *obs.Span, res Result) (*System, Result) {
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
	res.DecidedBy = backendName(opts)
	if span != nil {
		span.SetAttr("class", res.Class.String())
		span.SetAttr("backend", res.DecidedBy)
	}
	return work, res
}

// backendName names the backend opts select, as Result.DecidedBy and the
// spans of the prepass schedule's backend slices do.
func backendName(opts Options) string {
	if opts.Datalog {
		return "datalog"
	}
	return "fixpoint"
}

// newFixpoint builds the fixpoint verifier of work, resolving the goal
// variable of a Message Generation query.
func newFixpoint(work *System, opts Options, span *obs.Span) (*simplified.Verifier, error) {
	var goal *simplified.Goal
	if opts.Goal != nil {
		v, ok := work.VarByName(opts.Goal.Var)
		if !ok {
			return nil, fmt.Errorf("paramra: unknown goal variable %q", opts.Goal.Var)
		}
		goal = &simplified.Goal{Var: v, Val: lang.Val(opts.Goal.Val)}
	}
	return simplified.New(work, simplified.Options{
		MaxMacroStates: opts.MaxMacroStates,
		Goal:           goal,
		Progress:       fixpointProgress(opts.Progress),
		Trace:          span,
		Metrics:        opts.Metrics,
	})
}

// fixpointResult folds a fixpoint search into res: verdict, statistics and,
// for a violation, the witness, dependency graph and §4.3 bound. Every read
// log of a violation names messages of its own configuration, so a graph or
// witness that fails to build is a verifier bug and an error.
func fixpointResult(res Result, work *System, out simplified.Result) (Result, error) {
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
		return res, out.Err
	}
	if out.Unsafe && out.Violation != nil {
		// One index resolves the witness and every read log of the graph.
		names := out.Violation.Resolver()
		witness, err := names.Keys(out.Violation.Log)
		var g *depgraph.Graph
		if err == nil {
			g, err = depgraph.FromResolved(work, out.Violation, names)
		}
		if err != nil {
			return res, fmt.Errorf("paramra: fixpoint violation: %w", err)
		}
		res.Witness, res.Graph, res.EnvThreadBound = witness, g, g.CostGoal()
	}
	return res, nil
}

// defaultMaxSkeletons is the Datalog backend's skeleton cap when
// Options.MaxSkeletons is 0.
const defaultMaxSkeletons = 100_000

// DatalogInstances hands yield, in order, the ground query instances that
// Verify with Options.Datalog evaluates for sys — same skeleton cap, same
// grounding — each as the skeleton walk reaches it, with its Steps valid
// during the call; yield returning false stops the walk. It reports
// whether the walk ran to its end (false when the cap or yield cut it
// short). It runs no prepass, unrolling or cache lookup; radatalog's -dump
// and -stats list these instances one by one.
func DatalogInstances(ctx context.Context, sys *System, opts Options, yield func(*encode.Problem) bool) (bool, error) {
	opts = opts.normalized()
	enc, err := datalogEncoder(sys)
	if err != nil {
		return false, err
	}
	return enc.Each(ctx, skeletonCap(opts), yield)
}

// skeletonCap is the Datalog backend's skeleton cap under opts.
func skeletonCap(opts Options) int {
	if opts.MaxSkeletons == 0 {
		return defaultMaxSkeletons
	}
	return opts.MaxSkeletons
}

// datalogEncoder emits sys's makeP prefix with the grounding Verify uses.
// The abstract value sets double as grounding hints: registers range only
// over the values they can hold at each env PC, shrinking the instances
// without changing derivability. The facts must describe the exact system
// encoded (post-unroll), so they are computed here, not reused from the
// verdict prepass.
func datalogEncoder(sys *System) (*encode.Encoder, error) {
	var hints encode.Hints
	if ef := analysis.Analyze(sys).EnvFacts(); ef != nil {
		hints = ef
	}
	return encode.New(sys, hints)
}

// datalogBackend is the makeP → Datalog backend (Theorem 4.1) on one
// system, ∃-style: the system is unsafe iff some dis-run skeleton's query
// instance derives unsafe(). It runs in slices, on the calling goroutine.
// The first slice emits the prefix the instances share and evaluates the
// prefix's least model once. The slices then pull the skeletons of one
// walk, pausing only between two, and evaluate the walk's DFS tree once
// per step: a guess only adds facts as it grows, so each step continues its
// parent's model, an instance's model is its last step's, and the backend
// ends at the first instance in walk order whose goal is derived.
type datalogBackend struct {
	sys  *System
	opts Options
	// enc and insts are built by prepare, chain by the first slice.
	enc                      *encode.Encoder
	prefixFacts, prefixRules int
	// chain[k] is the model of the current instance's first k steps, and
	// chain[0] the prefix's. The databases past the current instance's
	// chain are storage that the next continuations at their depths reuse,
	// so at most one database per depth of the walk's path is live.
	chain []*datalog.DB
	insts *encode.Instances
	// steps counts the walk steps evaluated: continuations of a parent
	// step's model.
	steps int
	// res holds the counters, and wall the time the ended slices ran; the
	// progress ticker reads them under mu.
	mu           sync.Mutex
	res          Result
	wall         time.Duration
	stopProgress func()
	ended        bool
	err          error

	hInst                  *obs.Histogram
	cInst, cRounds, cAtoms *obs.Counter
	roundHook              datalog.RoundHook
}

// newDatalog readies the Datalog backend of sys under opts, with res as
// the base of its Results; its first slice does the work.
func newDatalog(sys *System, opts Options, res Result) *datalogBackend {
	res.Unsafe, res.Complete, res.Stats = false, false, Stats{}
	return &datalogBackend{sys: sys, opts: opts, res: res, stopProgress: func() {}}
}

// verifyDatalog runs the Datalog backend in one slice under a "datalog"
// span, and returns it with its Result.
func verifyDatalog(ctx context.Context, sys *System, opts Options, res Result, span *obs.Span) (*datalogBackend, Result, error) {
	dspan := span.Child("datalog")
	defer dspan.End()
	d := newDatalog(sys, opts, res)
	if err := d.prepare(); err != nil {
		return d, d.snapshot(), err
	}
	res, _, err := d.run(ctx, dspan, nil)
	return d, res, err
}

// prepare emits the prefix the instances share and readies the skeleton
// walk. An error means that the backend cannot run on the system.
func (d *datalogBackend) prepare() error {
	start := time.Now()
	defer d.addWall(start)
	if d.opts.Goal != nil {
		return errors.New("paramra: the Datalog backend supports assert-reachability only")
	}
	enc, err := datalogEncoder(d.sys)
	if err != nil {
		return err
	}
	d.enc = enc
	d.prefixFacts, d.prefixRules = countRules(enc.Prefix().Rules)
	d.insts = enc.Instances(skeletonCap(d.opts))
	d.startObs()
	return nil
}

// run continues the prepared backend under dspan until it ends, or, when
// pause (nil = never) reports true before the next skeleton, pauses. It
// returns the Result and true once the backend has ended: it decided — its
// Result is Complete, or it returns an error — or the skeleton cap cut the
// walk short. The counters are then those of one run to the end: Stats
// cover the instances up to and including the first UNSAFE one in walk
// order. Stats.Wall, which includes the encoding and the shared model, is
// populated on every path, cancellation included.
func (d *datalogBackend) run(ctx context.Context, dspan *obs.Span, pause func() bool) (Result, bool, error) {
	if d.ended {
		return d.snapshot(), true, d.err
	}
	start := time.Now()
	end := func(err error) (Result, bool, error) {
		d.stopProgress()
		d.addWall(start)
		d.ended, d.err = true, err
		return d.snapshot(), true, err
	}
	// The two spans overlap: the walk feeds the evaluation as it goes.
	eval := dspan.Child("datalog-eval")
	walk := dspan.Child("skeleton-enumeration")
	closeSpans := func(complete bool) {
		if walk != nil {
			walk.SetAttr("skeletons", d.res.Stats.Skeletons)
			walk.SetAttr("complete", complete)
			walk.End()
		}
		if eval != nil {
			eval.SetAttr("instances_evaluated", d.res.Stats.Skeletons)
			eval.SetAttr("rounds", d.res.Stats.FixpointRounds)
			eval.SetAttr("atoms", d.res.Stats.DatalogAtoms)
			eval.SetAttr("unsafe", d.res.Unsafe)
			eval.End()
		}
	}
	if d.chain == nil {
		// The instances share their prefix, so its least model is
		// evaluated once, and every chain continues from it.
		mspan := eval.Child("shared-model")
		model, st, err := datalog.Eval(ctx, d.enc.Prefix(), d.roundHook)
		if mspan != nil {
			mspan.SetAttr("rounds", st.Rounds)
			mspan.SetAttr("atoms", st.Atoms)
			mspan.End()
		}
		if err != nil {
			closeSpans(false)
			return end(err)
		}
		d.chain = []*datalog.DB{model}
	}

	for {
		if pause != nil && pause() {
			closeSpans(false)
			d.addWall(start)
			return d.snapshot(), false, nil
		}
		p, ok, err := d.insts.Next(ctx)
		if err == nil && !ok {
			err = ctx.Err()
		}
		if !ok || err != nil {
			d.mu.Lock()
			d.res.Complete = d.insts.Complete() && err == nil
			d.mu.Unlock()
			closeSpans(d.res.Complete)
			return end(err)
		}
		hit, err := d.evaluate(ctx, p)
		if hit {
			d.mu.Lock()
			d.res.Unsafe, d.res.Complete = true, true
			d.mu.Unlock()
			closeSpans(false)
			return end(nil)
		}
		if err != nil {
			closeSpans(false)
			return end(err)
		}
	}
}

// evaluate evaluates p's steps past those shared with the instance before
// it in the chain, and counts p. Each step continues its parent's model
// into its depth's storage; a continuation that derives the goal, or is
// cancelled, ends the chain. It reports whether p's goal is derived.
func (d *datalogBackend) evaluate(ctx context.Context, p *encode.Problem) (bool, error) {
	var t0 time.Time
	if d.hInst != nil {
		t0 = time.Now()
	}
	facts, rules := d.prefixFacts, d.prefixRules
	for _, st := range p.Steps {
		f, r := countRules(st)
		facts, rules = facts+f, rules+r
	}
	var (
		last   *datalog.DB
		hit    bool
		rounds int
		err    error
	)
	for k := p.Shared; k < len(p.Steps) && !hit && err == nil; k++ {
		if k+1 == len(d.chain) {
			d.chain = append(d.chain, nil)
		}
		var st datalog.EvalStats
		last, hit, st, err = datalog.Continue(ctx, d.chain[k], d.chain[k+1], p.Steps[k], &p.Goal, d.roundHook)
		d.chain[k+1] = last
		rounds += st.Rounds
		d.steps++
	}
	if d.hInst != nil {
		d.hInst.Observe(int64(time.Since(t0)))
	}
	atoms := last.Size()
	d.mu.Lock()
	d.res.Stats.Skeletons++
	d.res.Stats.DatalogFacts += facts
	d.res.Stats.DatalogRules += rules
	d.res.Stats.FixpointRounds += rounds
	d.res.Stats.DatalogAtoms += atoms
	d.mu.Unlock()
	d.cInst.Inc()
	d.cRounds.Add(int64(rounds))
	d.cAtoms.Add(int64(atoms))
	return hit, err
}

// startObs resolves the metrics handles and starts the progress ticker,
// which runs until the backend ends or is stopped.
func (d *datalogBackend) startObs() {
	if m := d.opts.Metrics; m != nil {
		d.hInst = m.Histogram("paramra_datalog_instance_ns",
			"wall time per Datalog query instance (ns)")
		hRound := m.Histogram("paramra_datalog_round_ns",
			"wall time per semi-naive delta round (ns)")
		d.roundHook = func(d time.Duration) { hRound.Observe(int64(d)) }
		d.cInst = m.Counter("paramra_datalog_instances_total",
			"Datalog query instances evaluated")
		d.cRounds = m.Counter("paramra_datalog_rounds_total",
			"semi-naive fixpoint rounds across instances")
		d.cAtoms = m.Counter("paramra_datalog_atoms_total",
			"ground atoms derived across instances")
	}
	if p := d.opts.Progress; p != nil {
		d.stopProgress = engine.Tick(500*time.Millisecond, func() { p(d.snapshot().Stats) })
	}
}

// addWall adds the time since start, when a slice began, to the wall.
func (d *datalogBackend) addWall(start time.Time) {
	d.mu.Lock()
	d.wall += time.Since(start)
	d.mu.Unlock()
}

// snapshot is the backend's Result so far, with the time its slices ran.
func (d *datalogBackend) snapshot() Result {
	d.mu.Lock()
	res := d.res
	res.Stats.Wall = d.wall
	d.mu.Unlock()
	return res
}

// stop ends a backend that has not ended, as a caller that will not resume
// it, for its counters so far.
func (d *datalogBackend) stop() Result {
	if !d.ended {
		d.stopProgress()
		d.ended = true
	}
	return d.snapshot()
}

// countRules splits rules into facts and proper rules.
func countRules(rules []datalog.Rule) (facts, proper int) {
	for _, r := range rules {
		if r.IsFact() {
			facts++
		} else {
			proper++
		}
	}
	return facts, proper
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
	span := opts.beginSpan("confirm-violation")
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
			Progress:  concreteProgress(opts.Progress),
			Trace:     span,
			Metrics:   opts.Metrics,
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
// concrete RA semantics and classifies its sink states. The reported
// example is the deadlocked state with the smallest key.
func FindDeadlocks(ctx context.Context, sys *System, nEnv int, opts Options) (DeadlockResult, error) {
	opts = opts.normalized()
	inst, err := ra.NewInstance(sys, nEnv)
	if err != nil {
		return DeadlockResult{}, err
	}
	span := opts.beginSpan("find-deadlocks")
	defer span.End()
	rep := inst.FindDeadlocksContext(ctx, ra.Limits{
		MaxStates: opts.MaxStates,
		Progress:  concreteProgress(opts.Progress),
		Trace:     span,
		Metrics:   opts.Metrics,
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
	span := opts.beginSpan("inventory")
	defer span.End()
	v, err := simplified.New(sys, simplified.Options{
		MaxMacroStates: opts.MaxMacroStates,
		Progress:       fixpointProgress(opts.Progress),
		Trace:          span,
		Metrics:        opts.Metrics,
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
	span := opts.beginSpan("verify-instance")
	defer span.End()
	if span != nil {
		span.SetAttr("env_threads", nEnv)
	}
	out := inst.ExploreContext(ctx, ra.Limits{
		MaxStates: opts.MaxStates,
		Progress:  concreteProgress(opts.Progress),
		Trace:     span,
		Metrics:   opts.Metrics,
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
