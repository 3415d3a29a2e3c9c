#!/usr/bin/env sh
# bench-compare.sh — the bench regression gate.
#
# Usage: scripts/bench-compare.sh [-selftest] [baseline] [tolerance]
#
# Re-runs the parallel experiment (the fixpoint's wall time and macro-state
# count on the corpus entries with at least 50 macro-states) and compares it
# against the checked-in baseline (BENCH_parallel.json by default) with
# per-machine calibration:
# raw wall times are normalized by the run's median baseline ratio, so a
# slower CI machine passes while a single regressing benchmark fails. Exit
# code 0 means no entry regressed; 1 means the gate tripped.
#
# -selftest proves the gate is live: it injects a 25x slowdown into one
# heavyweight entry and requires the comparison to FAIL. CI runs the
# selftest before the real comparison — a gate that cannot trip is not a
# gate.
set -eu

SELFTEST=0
if [ "${1:-}" = "-selftest" ]; then
  SELFTEST=1
  shift
fi
BASELINE="${1:-BENCH_parallel.json}"
TOLERANCE="${2:-2.0}"

[ -f "$BASELINE" ] || { echo "bench-compare: baseline $BASELINE not found" >&2; exit 2; }

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "bench-compare: building rabench"
go build -o "$WORKDIR/rabench" ./cmd/rabench

if [ "$SELFTEST" -eq 1 ]; then
  echo "bench-compare: selftest — injecting a 25x slowdown into peterson-ra"
  STATUS=0
  "$WORKDIR/rabench" -compare "$BASELINE" -tolerance "$TOLERANCE" \
    -inject-slowdown peterson-ra=25 parallel >"$WORKDIR/selftest.out" 2>&1 || STATUS=$?
  cat "$WORKDIR/selftest.out"
  if [ "$STATUS" -eq 0 ]; then
    echo "bench-compare: SELFTEST FAIL — injected slowdown did not trip the gate" >&2
    exit 1
  fi
  if ! grep -q "regression: peterson-ra" "$WORKDIR/selftest.out"; then
    echo "bench-compare: SELFTEST FAIL — gate tripped without naming the injected entry" >&2
    exit 1
  fi
  echo "bench-compare: selftest PASS (gate trips on a real slowdown)"
  exit 0
fi

echo "bench-compare: comparing against $BASELINE (tolerance ${TOLERANCE}x)"
"$WORKDIR/rabench" -compare "$BASELINE" -tolerance "$TOLERANCE" parallel
echo "bench-compare: PASS"
