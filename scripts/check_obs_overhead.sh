#!/usr/bin/env bash
# Bounds what turning observability on costs a join. Phase timing is always
# on; obs::Enabled() adds only trace spans and hardware-counter reads, and
# this script checks that those stay cheap enough to leave on:
#
#  * Per-site: ObsTest.DisabledScopeCostIsNanoseconds and
#    ObsTest.AlwaysOnPhaseScopeCostIsAFewClockReads bound the per-scope cost
#    with observability off.
#  * End-to-end (this script): default NOPA runs of run_join are interleaved
#    with the same runs under --trace (observability on, spans written to a
#    scratch file). The best traced total may exceed the best default total
#    by at most 1% plus an absolute noise floor. Interleaving spreads host
#    noise evenly over both kinds of run.
#
# Usage: check_obs_overhead.sh [BINARY_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
RUN_JOIN="$BUILD_DIR/examples/run_join"
if [ ! -x "$RUN_JOIN" ]; then
  echo "check_obs_overhead: $RUN_JOIN not built" >&2
  exit 1
fi

# Small enough to finish quickly on a CI runner, large enough that the total
# is dominated by join work rather than process startup. --repeat keeps the
# fastest of N runs, which strips scheduler outliers on shared hosts.
ARGS=(--join=NOPA --build=1000000 --probe=4000000 --threads=2 --repeat=5)
ROUNDS=3
TRACE_FILE=$(mktemp)
trap 'rm -f "$TRACE_FILE"' EXIT

total_ns() {
  # "  total      : 12.34 ms" -> nanoseconds
  awk '/^  total/ { printf "%.0f", $3 * 1e6 }'
}

best_of() {  # best_of BEST RUN -> the smaller of the two; RUN if BEST is unset
  if [ -z "$1" ] || [ "$2" -lt "$1" ]; then echo "$2"; else echo "$1"; fi
}

default=""
traced=""
for _ in $(seq "$ROUNDS"); do
  run=$("$RUN_JOIN" "${ARGS[@]}" | total_ns)
  [ -n "$run" ] && [ "$run" -gt 0 ] && default=$(best_of "$default" "$run")
  run=$("$RUN_JOIN" "${ARGS[@]}" --trace="$TRACE_FILE" | total_ns)
  [ -n "$run" ] && [ "$run" -gt 0 ] && traced=$(best_of "$traced" "$run")
done

if [ -z "$default" ] || [ -z "$traced" ]; then
  echo "check_obs_overhead: could not parse run_join output" >&2
  exit 1
fi
if [ ! -s "$TRACE_FILE" ]; then
  echo "check_obs_overhead: the traced runs wrote no trace" >&2
  exit 1
fi

# 1% relative tolerance with a 5 ms absolute floor: at the smoke-test sizes
# CI uses, a 1% band alone would be below timer/scheduler noise.
overhead=$((traced - default))
allowed=$((default / 100))
floor=5000000
[ "$allowed" -lt "$floor" ] && allowed=$floor

echo "check_obs_overhead: default=${default}ns traced=${traced}ns" \
     "overhead=${overhead}ns allowed=${allowed}ns"
if [ "$overhead" -gt "$allowed" ]; then
  echo "check_obs_overhead: enabling observability costs more than the" \
       "tolerance" >&2
  exit 1
fi
echo "check_obs_overhead: OK (spans and counters are cheap enough to leave on)"
