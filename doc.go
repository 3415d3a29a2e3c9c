// Package paramra is a from-scratch implementation of
//
//	Krishna, Godbole, Meyer, Chakraborty:
//	"Parameterized Verification under Release Acquire is PSPACE-complete",
//	PODC 2022.
//
// It decides safety for parameterized concurrent programs under the C11
// release-acquire (RA) memory model: systems with an unbounded number of
// identical, CAS-free environment threads plus finitely many loop-free
// distinguished threads — the class env(nocas) ∥ dis_1(acyc) ∥ … ∥
// dis_n(acyc) for which the paper proves the problem PSPACE-complete.
//
// The facade in this package wraps the building blocks in internal/:
//
//	internal/lang        the Com while-language (parser, CFGs, classification)
//	internal/ra          the concrete RA operational semantics for fixed instances
//	internal/simplified  the paper's simplified semantics and the verifier
//	internal/datalog     a Datalog engine with Cache Datalog and linear translation
//	internal/encode      the makeP encoding into (Cache) Datalog
//	internal/depgraph    dependency graphs, compaction, env-thread-count bounds
//	internal/tqbf        TQBF and the PSPACE-hardness reduction (Figure 6)
//	internal/cm          counter machines and the Theorem 1.1 construction
//	internal/bench       the benchmark corpus and experiment harness
//
// # Quick start
//
//	sys, err := paramra.Parse(src)          // concrete syntax, see below
//	res, err := paramra.Verify(context.Background(), sys, paramra.Options{})
//	if res.Unsafe { ... }
//
// Every entry point takes a context; cancellation or a deadline stops the
// search and returns the partial Result (Complete = false) together with
// the context error, and Options.Progress streams periodic Stats
// snapshots. Every search runs on the calling goroutine: the fixpoint is
// one sequential breadth-first search, the concrete explorer — the prepass
// replay, VerifyInstance, ConfirmViolation and FindDeadlocks — one
// sequential depth-first search (see internal/engine), and the Datalog
// backend one depth-first walk, so verdicts, DecidedBy, the env-thread
// bound, witnesses and statistics are the same on every run.
//
// # Result and Stats fields by backend
//
// Verify has three backends — the simplified-semantics fixpoint (default),
// the Datalog encoding (Options.Datalog), and the concrete RA explorer
// (VerifyInstance / ConfirmViolation, whose InstanceResult mirrors the
// shared Result fields). Each fills a different slice of Result and Stats.
// With Options.Prepass, an answer the prepass decides fills the last
// column, and its Stats are those of the backend that ran beside it (b),
// as they stood when the schedule stopped, zero when it never ran:
//
//	field                  fixpoint  Datalog  concrete  prepass
//	Result.Unsafe             ✓         ✓        ✓         ✓
//	Result.Complete           ✓         ✓        ✓         ✓
//	Result.Class              ✓         ✓        —         ✓
//	Result.EnvThreadBound     ✓         —        —         ✓   (-1 when absent)
//	Result.Graph              ✓         —        —         —   (unsafe only)
//	Result.Witness            ✓         —        ✓         ✓   (unsafe only)
//	Result.Schedule           ✓         ✓        —         ✓   (engines run)
//	Stats.MacroStates         ✓         —        —         b
//	Stats.DisTransitions      ✓         —        —         b
//	Stats.EnvConfigs          ✓         —        —         b
//	Stats.EnvMsgs             ✓         —        —         b
//	Stats.SaturationSteps     ✓         —        —         b
//	Stats.States              —         —        ✓         —
//	Stats.Transitions         —         —        ✓         —
//	Stats.Skeletons           —         ✓        —         b   (instances evaluated)
//	Stats.DatalogFacts        —         ✓        —         b   (per instance, summed)
//	Stats.DatalogRules        —         ✓        —         b   (per instance, summed)
//	Stats.FixpointRounds      —         ✓        —         b   (rounds per walk step)
//	Stats.DatalogAtoms        —         ✓        —         b   (model sizes, summed)
//	Stats.DedupHits           ✓         —        ✓         b
//	Stats.PeakFrontier        ✓         —        ✓         b
//	Stats.Wall                ✓         ✓        ✓         b
//
// The fixpoint searches macro-states whose dis timestamps are canonical:
// after every dis store it renumbers the variable's messages to the least
// slots that keep their order, CAS adjacency and one free slot in every
// other gap, so a macro-state is an order class of integer states.
// Stats.MacroStates and Options.MaxMacroStates count order classes, and the
// message keys in a fixpoint witness or dependency graph carry canonical
// timestamps. The Datalog backend's skeleton walk takes the same step: it
// walks order classes, so Stats.Skeletons and Options.MaxSkeletons count
// one skeleton per path of that walk, and each skeleton's timestamps are
// its last state's canonical slots.
//
// The Datalog backend evaluates the model of the instances' shared prefix
// once, then the skeleton walk's DFS tree once per step, as the walk
// reaches it: a step only adds rules to its parent's chain, so it is
// evaluated as a continuation of its parent step's model, an instance's
// model is its last step's, and the walk stops at the first instance in
// walk order that derives unsafe(). The counters cover the instances up to
// and including that one (all of them on a SAFE or capped run): Skeletons
// counts them, DatalogFacts and DatalogRules count each one's whole
// program, prefix included, and DatalogAtoms sums the size of each one's
// model, the shared model included. FixpointRounds sums the continuation
// rounds of the steps evaluated, each step of the walk once however many
// instances share it, and not the shared model's; a step an instance
// shares with the one before in the walk but whose timestamps a later
// store relabeled is evaluated again (simplified.Skeleton.Shared). The UNSAFE instance
// stops at the step that derives its goal, so its atom count is its
// chain's models up to that step plus what that step derived by then.
//
// With Options.Prepass, Verify runs the prepass's concrete replay and the
// backend in slices under one work meter, whose units cost about 1 µs in
// every engine: a replay state, a fixpoint macro-state or ten saturation
// steps, a third of a Datalog walk step. Each round raises a common
// target from 16 units by a factor of 2, and the replay, then the
// backend, runs until its own spend reaches it. Every engine keeps its
// frontier between its slices and pauses only between two expansions, so
// every answer is the one its engine gives run alone, a backend's counters
// included, and Stats are the backend's, never a sum over slices (see
// Options.Prepass). Result.Schedule lists each engine's slices and units.
//
// Systems are written in a small concrete syntax:
//
//	system prodcons {
//	  vars x y
//	  domain 4
//	  env producer
//	  dis consumer
//	}
//
//	thread producer {
//	  regs r
//	  r = load y; assume r == 1
//	  store x 2
//	}
//
//	thread consumer {
//	  regs s
//	  store y 1
//	  s = load x; assume s == 2
//	  assert false
//	}
//
// `env` names the program run by unboundedly many environment threads; each
// `dis` clause adds one distinguished thread. Verification asks whether any
// instance (any number of env threads) can execute `assert false`.
package paramra
