#!/usr/bin/env sh
# bench-allocs.sh — the allocation budget gate.
#
# Usage: scripts/bench-allocs.sh [fixpoint-budget [replay-budget]]
#
# Runs eight benchmarks with -benchmem and fails when any one's allocs/op
# exceeds its budget. Unlike wall time, allocation counts are nearly
# machine-independent (they vary only slightly with worker scheduling), so
# this gate needs no calibration: it directly catches a change that
# reintroduces per-successor heap traffic (see DESIGN "State
# representation").
#
#   BenchmarkVerifyParallel/peterson/j=8  the simplified fixpoint. Default
#       budget ~2x its cost on canonical timestamps (~2.5k-2.8k allocs/op)
#       and ~1/125 of the cost while the fixpoint keyed macro-states on
#       integer slots (~0.75M allocs/op), so a return to integer slots fails
#       here.
#   BenchmarkPrepassReplay  the concrete RA explorer, through the barrier
#       prepass replay at raserved's state cap. Default budget ~2x the
#       measured steady state (~0.12M allocs/op) and ~1/10 of the cost
#       before the explorer built successors in scratch (2.50M allocs/op).
#   BenchmarkSkeletons  the dis-run skeleton enumeration behind makeP, on
#       lamport-2-ra. Fixed budget ~1.5x its cost before the enumeration
#       moved onto the shared dis-step generator (566k allocs/op; ~529k
#       after, ~496k once messages dropped their cached keys). A move or
#       step built where the heap keeps it (say, taking the address of a
#       per-move local) shows up here first.
#   BenchmarkSlice  the verdict-preserving slicer behind the CLIs' -slice
#       flag and ravet, over the corpus plus 48 generated systems. Fixed budget
#       ~1.5x its cost while the slicer still ran on constant propagation
#       (29.1k allocs/op; ~27.0k on the value sets). Value sets that stop
#       sharing their small singletons, or register vectors copied on every
#       join, show up here first.
#   BenchmarkDatalogVerify  the makeP → Datalog backend end to end, on
#       ticketlock at two workers: all 72 query instances are evaluated,
#       so the count does not depend on scheduling. Fixed budget ~1.5x its
#       cost once the instances shared one prefix and continued from its
#       model on the packed-key store (~8.0k allocs/op), and ~1/25 of the
#       cost while every instance rebuilt and re-derived the whole program
#       under rendered keys (~0.30M allocs/op). Per-fact keys or
#       per-instance rebuilt tables show up here first.
#   BenchmarkServedCorpus  the served path: the 24 corpus entries through
#       paramra.Verify with raserved's default options at one worker, where
#       the prepass schedule alternates replay and fixpoint rounds under
#       growing state budgets. Fixed budget ~1.5x its cost once the
#       fixpoint searched order classes of timestamps (~41k allocs/op),
#       ~1/2 of its cost on integer slots (~122k allocs/op), and ~1/4 of
#       the cost while the replay ran to its full cap before the fixpoint
#       (~237k allocs/op), so a return to either fails here.
#   BenchmarkDatalogVerifyUnsafe  the Datalog backend's early exit, on
#       peterson-ra at two workers: the skeleton walk stops at its 2nd of
#       26,136 skeletons, whose instance derives unsafe(). Fixed budget ~2x
#       its cost once instances were evaluated as the walk emitted them
#       (~2.0k-2.7k allocs/op; the walk may run up to 8 skeletons per
#       worker ahead of a worker's answer) and ~1/400 of the cost while
#       every instance was built before any was evaluated (~1.95M
#       allocs/op), so a return to building them all fails here.
#   BenchmarkSaturateTQBF  env saturation, the closure §5 reduces TQBF to:
#       the depth-2 TQBF reduction of seed 7, one macro-state, through
#       paramra.Verify with the prepass off at one worker. Fixed budget
#       ~2x its cost once a configuration's later passes ran only its loads
#       against the env messages new since its previous pass (~9.2k
#       allocs/op) and ~1/5 of the cost while every pass took every edge
#       against every message (~103k allocs/op), so a return to naive
#       passes fails here.
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

gate BenchmarkVerifyParallel/peterson/j=8 "$FIXPOINT_BUDGET"
gate BenchmarkPrepassReplay "$REPLAY_BUDGET"
gate BenchmarkSkeletons 850000
gate BenchmarkSlice 44000
gate BenchmarkDatalogVerify 12000
gate BenchmarkServedCorpus 62000
gate BenchmarkDatalogVerifyUnsafe 5000
gate BenchmarkSaturateTQBF 20000
