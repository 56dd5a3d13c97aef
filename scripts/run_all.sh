#!/usr/bin/env bash
# Builds everything, runs the full test suite, and regenerates every paper
# figure/table reproduction. Outputs land in test_output.txt and
# bench_output.txt at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Use Ninja when available, otherwise the default generator -- the same
# build tree the tier-1 verify line in ROADMAP.md configures. If an existing
# build/ was configured with a different generator, reconfigure from scratch.
GENERATOR_ARGS=()
if command -v ninja > /dev/null 2>&1; then
  GENERATOR_ARGS=(-G Ninja)
  grep -q 'CMAKE_GENERATOR:INTERNAL=Ninja' build/CMakeCache.txt 2> /dev/null \
    || rm -rf build
elif [ -f build/CMakeCache.txt ] \
    && grep -q 'CMAKE_GENERATOR:INTERNAL=Ninja' build/CMakeCache.txt; then
  rm -rf build
fi

cmake -B build -S . ${GENERATOR_ARGS[@]+"${GENERATOR_ARGS[@]}"}
cmake --build build -j "$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

# Each harness gets BENCH_TIMEOUT seconds (default 900); the sweep stops at
# the first harness that fails or hangs, with a diagnostic naming it, so a
# broken bench cannot scroll by unnoticed in bench_output.txt. Every harness
# also writes its machine-readable results (mmjoin.bench.v1 JSON Lines, see
# docs/OBSERVABILITY.md) to BENCH_<name>.json at the repository root, and
# each file is schema-validated before the sweep moves on.
BENCH_TIMEOUT="${BENCH_TIMEOUT:-900}"
(for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  name="$(basename "$b")"
  json="BENCH_${name#bench_}.json"
  echo "######## $b ########"
  rc=0
  rm -f "$json"
  MMJOIN_BENCH_JSON="$json" timeout "$BENCH_TIMEOUT" "$b" || rc=$?
  if [ "$rc" -eq 124 ]; then
    echo "FAILED: $b exceeded ${BENCH_TIMEOUT}s timeout" >&2
    exit 1
  elif [ "$rc" -ne 0 ]; then
    echo "FAILED: $b exited with status $rc" >&2
    exit 1
  fi
  # The mmjoin.bench.v1 sink is opened by PrintBanner; google-benchmark
  # micro harnesses never open it and legitimately write no file.
  if [ -f "$json" ]; then
    if ! python3 scripts/check_metrics.py --kind=bench "$json"; then
      echo "FAILED: $b wrote an invalid $json" >&2
      exit 1
    fi
  else
    echo "note: $b wrote no $json (no bench JSON sink); skipping validation"
  fi
  echo
done) 2>&1 | tee bench_output.txt

# Dedicated skew sweep at the scheduler-acceptance geometry (|R| = 1M,
# |S| = 10 x |R|, 8 threads): the theta sweep up to 1.25 exercises the
# sharded work-stealing queue and the shared skew build slots, and the
# results land in BENCH_skew.json separately from the full-size
# BENCH_fig15_skew.json so skew regressions diff against a stable baseline.
(echo "######## skew sweep (BENCH_skew.json) ########"
rc=0
MMJOIN_BENCH_JSON="BENCH_skew.json" timeout "$BENCH_TIMEOUT" \
  build/bench/bench_fig15_skew --build=$((1 << 20)) --threads=8 || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAILED: skew sweep exited with status $rc" >&2
  exit 1
fi
if ! python3 scripts/check_metrics.py --kind=bench BENCH_skew.json; then
  echo "FAILED: skew sweep wrote an invalid BENCH_skew.json" >&2
  exit 1
fi) 2>&1 | tee -a bench_output.txt

# Dedicated chunk-compaction sweep (selectivity x density threshold) at a
# CI-friendly geometry. The full-size run above writes
# BENCH_exec_compaction.json; this one lands in BENCH_exec.json so the
# compaction acceptance numbers (EXPERIMENTS.md) diff against a stable
# small-geometry baseline.
(echo "######## exec compaction sweep (BENCH_exec.json) ########"
rc=0
MMJOIN_BENCH_JSON="BENCH_exec.json" timeout "$BENCH_TIMEOUT" \
  build/bench/bench_exec_compaction --build=$((1 << 19)) \
  --probe=$((1 << 21)) --threads=8 --repeat=1 || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAILED: exec compaction sweep exited with status $rc" >&2
  exit 1
fi
if ! python3 scripts/check_metrics.py --kind=bench BENCH_exec.json; then
  echo "FAILED: exec compaction sweep wrote an invalid BENCH_exec.json" >&2
  exit 1
fi) 2>&1 | tee -a bench_output.txt

# Dedicated memory-budget degradation sweep at a pinned CI-friendly
# geometry (the harness itself covers two scales and three budget
# fractions per algorithm). Overwrites the default-geometry BENCH_budget.json
# from the generic loop above so budget-ladder regressions diff against a
# stable baseline.
(echo "######## memory budget sweep (BENCH_budget.json) ########"
rc=0
MMJOIN_BENCH_JSON="BENCH_budget.json" timeout "$BENCH_TIMEOUT" \
  build/bench/bench_budget --build=$((1 << 19)) --probe=$((1 << 21)) \
  --threads=8 --repeat=1 || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAILED: memory budget sweep exited with status $rc" >&2
  exit 1
fi
if ! python3 scripts/check_metrics.py --kind=bench BENCH_budget.json; then
  echo "FAILED: memory budget sweep wrote an invalid BENCH_budget.json" >&2
  exit 1
fi) 2>&1 | tee -a bench_output.txt

# Multi-tenant service sweep: jobs/sec and p95 latency for a mixed
# small/large + Zipf job burst, one lane vs. concurrent lanes. The
# peak_running field in each record is the witness that joins really
# overlapped.
(echo "######## join service sweep (BENCH_service.json) ########"
rc=0
MMJOIN_BENCH_JSON="BENCH_service.json" timeout "$BENCH_TIMEOUT" \
  build/bench/bench_service --build=$((1 << 18)) --probe=$((1 << 20)) \
  --threads=4 --lanes=2 --jobs=16 --repeat=1 || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAILED: join service sweep exited with status $rc" >&2
  exit 1
fi
if ! python3 scripts/check_metrics.py --kind=bench BENCH_service.json; then
  echo "FAILED: join service sweep wrote an invalid BENCH_service.json" >&2
  exit 1
fi) 2>&1 | tee -a bench_output.txt
