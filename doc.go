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
// the context error. Options.Parallelism sets the worker count (0 =
// GOMAXPROCS) and Options.Progress streams periodic Stats snapshots.
// Verdicts, DecidedBy, the env-thread bound, the fixpoint's witnesses and
// statistics, and the Datalog backend's statistics are identical for every
// worker count (see internal/engine), and so are the prepass's, whose
// replay always runs on one worker. Witnesses from the concrete explorer — those of
// VerifyInstance and ConfirmViolation — can differ between runs at
// Parallelism >= 2; Parallelism 1 makes them reproducible.
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
//	Stats.FixpointRounds      —         ✓        —   (continuation rounds)
//	Stats.DatalogAtoms        —         ✓        —   (model sizes, summed)
//	Stats.DedupHits           ✓         —        ✓
//	Stats.PeakFrontier        ✓         —        ✓
//	Stats.Wall                ✓         ✓        ✓
//	Stats.Workers             ✓         ✓        ✓
//
// The Datalog backend evaluates the model of the instances' shared prefix
// once, then each instance as a continuation of it while the skeleton walk
// emits them, and stops the walk at the first instance in walk order that
// derives unsafe(). Its counters cover the instances up to and including
// that one (all of them on a SAFE or capped run), whatever the worker
// count: Skeletons counts them, DatalogFacts and DatalogRules count each
// one's whole program, prefix included, FixpointRounds sums their
// continuation rounds, not the shared model's, and DatalogAtoms sums the
// size of each one's model, the shared model included; the UNSAFE
// instance stops at its goal, so its count is the atoms derived by then.
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
