#!/usr/bin/env sh
# bench-allocs.sh — the allocation budget gate.
#
# Usage: scripts/bench-allocs.sh [fixpoint-budget [replay-budget]]
#
# Runs nine benchmarks with -benchmem and fails when any one's allocs/op
# exceeds its budget. Unlike wall time, allocation counts are nearly
# machine-independent (every benchmarked search runs on one goroutine), so
# this gate needs no calibration: it directly catches a change that
# reintroduces per-successor heap traffic (see DESIGN "State
# representation").
#
#   BenchmarkVerify/peterson  the simplified fixpoint, one sequential
#       breadth-first search. Default budget ~2x its cost on canonical
#       timestamps (~2.5k-2.8k allocs/op while it ran on eight workers,
#       ~1.9k since) and ~1/125 of the cost while the fixpoint keyed
#       macro-states on integer slots (~0.75M allocs/op), so a return to
#       integer slots fails here.
#   BenchmarkPrepassReplay  the concrete RA explorer, through the barrier
#       prepass replay at raserved's state cap. Default budget ~2x the
#       measured steady state (~0.12M allocs/op on the free-order parallel
#       driver, ~0.11M on the sequential depth-first one, ~90k once a
#       thread-local successor shared its parent's memory and the other
#       threads' slices) and ~1/10 of the cost before the explorer built
#       successors in scratch (2.50M allocs/op).
#   BenchmarkSkeletons  the dis-run skeleton enumeration behind makeP, on
#       lamport-2-ra. Fixed budget ~2x its cost once the walk took order
#       classes and relabeled each skeleton to its leaf (~2.4k allocs/op
#       over 52 skeletons) and ~1/95 of the cost while it kept integer
#       timestamps (~457k allocs/op over 15,966; 566k before the
#       enumeration moved onto the shared dis-step generator), so a return
#       to integer slots fails here. A relabeled message built for every
#       step instead of for the ones that move shows up here too.
#   BenchmarkSlice  the verdict-preserving slicer behind the CLIs' -slice
#       flag and ravet, over the corpus plus 48 generated systems. Fixed budget
#       ~1.5x its cost while the slicer still ran on constant propagation
#       (29.1k allocs/op; ~27.0k on the value sets). Value sets that stop
#       sharing their small singletons, or register vectors copied on every
#       join, show up here first.
#   BenchmarkDatalogVerify  the makeP → Datalog backend end to end, on
#       ticketlock: all 9 query instances are evaluated. Fixed budget
#       ~1.3x its cost once the walk took order classes (~1.8k allocs/op),
#       below its cost while the walk kept integer timestamps and emitted
#       72 instances, each step of the walk evaluated once, continuing its
#       parent step's model in storage reused per depth (~4.7k-4.9k
#       allocs/op), when every instance re-evaluated all its steps in that
#       storage (~6.3k allocs/op) and while each instance continued from
#       the prefix's model on its own (~7.6k allocs/op), and ~1/125 of the
#       cost while every instance rebuilt and re-derived the whole program
#       under rendered keys (~0.30M allocs/op). Per-fact keys,
#       per-instance rebuilt tables or per-instance continuations show up
#       here first.
#   BenchmarkServedCorpus  the served path: the 24 corpus entries through
#       paramra.Verify with raserved's default options, where
#       the prepass schedule alternates replay and fixpoint rounds under
#       growing state budgets. Fixed budget ~1.15x its cost once a replay
#       round's budget was summed over its instances (~21.6k allocs/op),
#       below its cost while each instance got the whole budget (~31.0k
#       allocs/op; ~27.0k with successors that share their parent's
#       memory), ~1/5 of its cost on integer slots (~122k allocs/op), and
#       ~1/10 of the cost while the replay ran to its full cap before the
#       fixpoint (~237k allocs/op), so a return to any of these fails here.
#   BenchmarkServedCorpusDatalog  radatalog's default: the 24 corpus
#       entries through paramra.Verify with the Datalog backend and the
#       prepass, where the schedule alternates replay and Datalog rounds
#       under growing budgets. Fixed budget ~1.3x its cost once the walk
#       took order classes (~39k allocs/op), below its cost while the walk
#       kept integer timestamps (~139k-155k allocs/op with each step of
#       the walk evaluated once), when every instance re-evaluated all its
#       steps (~209k allocs/op), while each instance continued from the
#       prefix's model on its own (~247k allocs/op) and while the replay
#       ran to its full cap before the Datalog backend (~327k allocs/op),
#       so a return to any of these fails here.
#   BenchmarkDatalogVerifyUnsafe  the Datalog backend's early exit, on
#       peterson-ra: the skeleton walk stops at its 2nd of 63 skeletons
#       (of 26,136 while it kept integer timestamps), whose instance
#       derives unsafe(). Fixed budget ~2x its cost once instances were
#       evaluated as the walk emitted them (~2.0k-2.7k allocs/op on two
#       workers; ~1.8k since the walk's steps are evaluated on one
#       goroutine, ~1.6k since the walk took order classes) and ~1/400 of
#       the cost while every instance was built before any was evaluated
#       (~1.95M allocs/op), so a return to building them all fails here.
#   BenchmarkSaturateTQBF  env saturation, the closure §5 reduces TQBF to:
#       the depth-2 TQBF reduction of seed 7, one macro-state, through
#       paramra.Verify with the prepass off. Fixed budget ~2x its cost
#       once saturation probed each derived fact before building it and
#       built new ones from chunks (~425 allocs/op), ~1/10 of the cost
#       while every duplicate candidate cloned its registers, joined a
#       fresh view and allocated a read log before the probe (~9.2k
#       allocs/op), and ~1/120 of the cost while every pass took every
#       edge against every message (~103k allocs/op), so a return to
#       per-duplicate allocation fails here.
set -eu

FIXPOINT_BUDGET="${1:-6000}"
REPLAY_BUDGET="${2:-250000}"

# gate BENCH BUDGET runs one benchmark and checks its allocs/op.
gate() {
  echo "bench-allocs: running $1 (budget $2 allocs/op)"
  OUT="$(go test -run '^$' -bench "^$1\$" -benchtime 2x -benchmem .)"
  printf '%s\n' "$OUT"
  ALLOCS="$(printf '%s\n' "$OUT" | awk '/^Benchmark/ {
    for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
  }' | head -n 1)"
  if [ -z "$ALLOCS" ]; then
    echo "bench-allocs: no allocs/op figure in benchmark output" >&2
    exit 2
  fi
  if [ "$ALLOCS" -gt "$2" ]; then
    echo "bench-allocs: FAIL — $1: $ALLOCS allocs/op exceeds budget $2" >&2
    exit 1
  fi
  echo "bench-allocs: PASS — $1: $ALLOCS allocs/op within budget $2"
}

gate BenchmarkVerify/peterson "$FIXPOINT_BUDGET"
gate BenchmarkPrepassReplay "$REPLAY_BUDGET"
gate BenchmarkSkeletons 4800
gate BenchmarkSlice 44000
gate BenchmarkDatalogVerify 2400
gate BenchmarkServedCorpus 25000
gate BenchmarkServedCorpusDatalog 50000
gate BenchmarkDatalogVerifyUnsafe 5000
gate BenchmarkSaturateTQBF 850
