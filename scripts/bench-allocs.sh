#!/usr/bin/env sh
# bench-allocs.sh — the allocation budget gate.
#
# Usage: scripts/bench-allocs.sh [fixpoint-budget [replay-budget]]
#
# Runs three benchmarks with -benchmem and fails when any one's allocs/op
# exceeds its budget. Unlike wall time, allocation counts are nearly
# machine-independent (they vary only slightly with worker scheduling), so
# this gate needs no calibration: it directly catches a change that
# reintroduces per-successor heap traffic (see DESIGN "State
# representation").
#
#   BenchmarkVerifyParallel/peterson/j=8  the simplified fixpoint. Default
#       budget ~1.5x the measured steady state (~0.78M allocs/op) and ~1/4
#       of the cost before its exploration-core overhaul (5.17M allocs/op).
#   BenchmarkPrepassReplay  the concrete RA explorer, through the barrier
#       prepass replay at raserved's state cap. Default budget ~2x the
#       measured steady state (~0.12M allocs/op) and ~1/10 of the cost
#       before the explorer built successors in scratch (2.50M allocs/op).
#   BenchmarkSkeletons  the dis-run skeleton enumeration behind makeP, on
#       lamport-2-ra. Fixed budget ~1.5x its cost before the enumeration
#       moved onto the shared dis-step generator (566k allocs/op; ~529k
#       after). A move or step built where the heap keeps it (say, taking
#       the address of a per-move local) shows up here first.
set -eu

FIXPOINT_BUDGET="${1:-1200000}"
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
