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
// shared Result fields). Each fills a different slice of Result and Stats:
//
//	field                  fixpoint  Datalog  concrete
//	Result.Unsafe             ✓         ✓        ✓
//	Result.Complete           ✓         ✓        ✓
//	Result.Class              ✓         ✓        —
//	Result.EnvThreadBound     ✓         —        —   (-1 when absent)
//	Result.Graph              ✓         —        —   (unsafe only)
//	Result.Witness            ✓         —        ✓   (unsafe only)
//	Stats.MacroStates         ✓         —        —
//	Stats.DisTransitions      ✓         —        —
//	Stats.EnvConfigs          ✓         —        —
//	Stats.EnvMsgs             ✓         —        —
//	Stats.SaturationSteps     ✓         —        —
//	Stats.States              —         —        ✓
//	Stats.Transitions         —         —        ✓
//	Stats.Skeletons           —         ✓        —   (instances evaluated)
//	Stats.DatalogFacts        —         ✓        —   (per instance, summed)
//	Stats.DatalogRules        —         ✓        —   (per instance, summed)
//	Stats.FixpointRounds      —         ✓        —   (rounds per walk step)
//	Stats.DatalogAtoms        —         ✓        —   (model sizes, summed)
//	Stats.DedupHits           ✓         —        ✓
//	Stats.PeakFrontier        ✓         —        ✓
//	Stats.Wall                ✓         ✓        ✓
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
// With Options.Prepass, Verify alternates rounds of the prepass's concrete
// replay and of the backend under a budget that grows from 64 by a factor
// of 4 per round: replay states summed over the instances a round
// explores, fixpoint macro-states, or Datalog skeletons. The replay has the
// first turn, and the Datalog backend evaluates its shared model once, in
// its first round. A round counts only when its budget did not bind, so
// every answer is the one its engine gives at its full cap, a backend's
// counters included, and Stats are those of the last backend round, never
// a sum over rounds (see Options.Prepass).
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
