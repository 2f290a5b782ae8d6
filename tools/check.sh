#!/usr/bin/env bash
# Correctness matrix driver: builds and tests the tier-1 suite under each
# analysis configuration, runs the spmdlint static pass, and (when
# available) runs clang-tidy over the sources using the plain preset's
# compile_commands.json.
#
# Usage:
#   tools/check.sh                     # run every stage
#   tools/check.sh plain tsan          # run a subset
#   tools/check.sh lint-spmd           # just the static SPMD lint
#   tools/check.sh perfbench           # build + self-test the benchmark
#   JOBS=8 tools/check.sh              # override parallelism
#   SPMDLINT_NO_BASELINE=1 tools/check.sh lint-spmd   # report ALL findings
#
# Stages: plain, release, asan-ubsan, tsan, race-ledger, trace,
# bench-diff, perfbench, lint-spmd, tidy.
# Exit status is non-zero iff any requested stage fails; a stage that
# cannot run here (clang-tidy not installed) is recorded as SKIP, which
# does not fail the script.  A per-stage PASS/FAIL/SKIP table is printed
# at the end regardless of where a failure occurred.
#
# Test labels: the plain/release/asan-ubsan/tsan ctest presets exclude tests
# labelled `slow` (the differential conformance and schedule-stress
# layers) to keep feedback fast; the race-ledger preset runs everything.
# Select manually with `ctest -L ledger` / `ctest -L lint` / `ctest -LE
# slow` in any build tree (labels are regexes: the compound `slow-ledger`
# matches both).
set -u

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(plain release asan-ubsan tsan race-ledger trace bench-diff perfbench
    lint-spmd tidy)
fi

# Per-stage results, aggregated into the summary table and the exit code.
# Bash 3 compatible: parallel arrays instead of an associative array.
RESULT_NAMES=()
RESULT_CODES=()  # PASS | FAIL | SKIP
RESULT_WHY=()

note() { printf '\n==== %s ====\n' "$*"; }
record() {  # record <stage> <PASS|FAIL|SKIP> [why]
  RESULT_NAMES+=("$1")
  RESULT_CODES+=("$2")
  RESULT_WHY+=("${3:-}")
}

run_preset() {
  local preset="$1"
  note "preset: ${preset} (configure)"
  cmake --preset "${preset}" ||
    { record "${preset}" FAIL "configure"; return; }
  note "preset: ${preset} (build, -j${JOBS})"
  cmake --build --preset "${preset}" -j "${JOBS}" ||
    { record "${preset}" FAIL "build"; return; }
  note "preset: ${preset} (ctest)"
  ctest --preset "${preset}" -j "${JOBS}" ||
    { record "${preset}" FAIL "test"; return; }
  record "${preset}" PASS
}

# Tracing subsystem (src/trace, docs/tracing.md): runs the trace-labelled
# tier in the plain build, then produces a real trace.json from bench_host
# and schema-checks it by loading it back (python3 when available, else a
# structural grep).
run_trace() {
  note "trace: building plain preset"
  cmake --preset plain >/dev/null || { record trace FAIL "configure"; return; }
  cmake --build --preset plain -j "${JOBS}" --target test_trace bench_host ||
    { record trace FAIL "build"; return; }
  note "trace: ctest -L trace"
  ctest --test-dir build -L trace -j "${JOBS}" --output-on-failure ||
    { record trace FAIL "test"; return; }
  note "trace: bench_host --trace smoke (p=4, traced end to end)"
  (cd build && bench/bench_host --trace trace_smoke.json 4) ||
    { record trace FAIL "bench --trace"; return; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys; d=json.load(open(sys.argv[1]));
assert d["traceEvents"], "no trace events"' build/trace_smoke.json ||
      { record trace FAIL "trace.json invalid"; return; }
  else
    grep -q '"traceEvents"' build/trace_smoke.json ||
      { record trace FAIL "trace.json invalid"; return; }
  fi
  record trace PASS
}

# Bench regression gate (tools/bench_diff): fixture tests plus a self-diff
# of the committed BENCH_*.json baselines (exercises the parser on real
# reports; threshold 0 because a file always equals itself).
run_bench_diff() {
  # Committed baselines must carry real provenance: a "build_preset":
  # "unknown" baseline makes every future delta unattributable.  Refresh
  # the file from a preset build (cmake --preset plain) before committing.
  note "bench-diff: committed baseline provenance"
  local f
  for f in BENCH_host.json BENCH_pipeline.json; do
    if grep -q '"build_preset": *"unknown"' "${f}"; then
      echo "committed ${f} has build_preset \"unknown\" — refresh it from" \
           "a preset build" >&2
      record bench-diff FAIL "unknown provenance in ${f}"
      return
    fi
  done
  note "bench-diff: building plain preset"
  cmake --preset plain >/dev/null ||
    { record bench-diff FAIL "configure"; return; }
  cmake --build --preset plain -j "${JOBS}" --target bench_diff ||
    { record bench-diff FAIL "build"; return; }
  note "bench-diff: fixture + self-diff tests"
  ctest --test-dir build -L bench_diff -j "${JOBS}" --output-on-failure ||
    { record bench-diff FAIL "test"; return; }
  record bench-diff PASS
}

# End-to-end benchmark (perfbench/, BENCHMARK.json): builds it from this
# checkout's library sources into .bench_build/ and runs its self-test, so
# a library change that breaks the benchmark's build or its output checks
# fails here instead of at the next benchmark run.
run_perfbench() {
  if ! command -v python3 >/dev/null 2>&1; then
    note "perfbench: python3 not installed; skipping"
    record perfbench SKIP "python3 not installed"
    return
  fi
  note "perfbench: build + self-test"
  python3 perfbench/run.py --self-test ||
    { record perfbench FAIL "self-test"; return; }
  record perfbench PASS
}

# Static SPMD discipline lint (tools/spmdlint, docs/spmdlint.md).  Builds
# the analyzer directly with the host compiler into build-lint/ so the
# stage works without any CMake configure step, then lints src/ and
# examples/ against the checked-in baseline.  Set SPMDLINT_NO_BASELINE=1
# to see every finding including baselined ones (the nightly CI mode).
run_lint_spmd() {
  local cxx="${CXX:-}"
  if [ -z "${cxx}" ]; then
    if command -v g++ >/dev/null 2>&1; then cxx=g++;
    elif command -v clang++ >/dev/null 2>&1; then cxx=clang++;
    else
      note "lint-spmd: no C++ compiler found; skipping"
      record lint-spmd SKIP "no compiler"
      return
    fi
  fi
  note "lint-spmd: building analyzer (${cxx})"
  mkdir -p build-lint
  "${cxx}" -std=c++17 -O2 -Wall -Wextra -o build-lint/spmdlint \
    tools/spmdlint/lexer.cpp tools/spmdlint/rules.cpp \
    tools/spmdlint/main.cpp ||
    { record lint-spmd FAIL "build"; return; }
  local baseline_args=(--baseline tools/spmdlint/baseline.txt)
  if [ "${SPMDLINT_NO_BASELINE:-0}" != 0 ]; then
    baseline_args=(--no-baseline)
  fi
  note "lint-spmd: linting src/ examples/ (${baseline_args[*]})"
  build-lint/spmdlint --root . "${baseline_args[@]}" \
    --json build-lint/spmdlint.json src examples ||
    { record lint-spmd FAIL "findings"; return; }
  note "lint-spmd: corpus self-test"
  build-lint/spmdlint --root tests/lint_corpus --no-baseline \
    --expect tests/lint_corpus/expected.txt . ||
    { record lint-spmd FAIL "corpus"; return; }
  record lint-spmd PASS
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    note "clang-tidy not installed; skipping (see ROADMAP.md open items)"
    record tidy SKIP "clang-tidy not installed"
    return
  fi
  # clang-tidy needs the plain preset's compile_commands.json.
  if [ ! -f build/compile_commands.json ]; then
    cmake --preset plain || { record tidy FAIL "configure"; return; }
  fi
  note "clang-tidy ($(clang-tidy --version | head -n1))"
  local files
  files=$(git ls-files 'src/*.cpp' 'tests/*.cpp' 'bench/*.cpp')
  local runner="xargs -P ${JOBS} -n 4"
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build -quiet -j "${JOBS}" \
      'src/.*\.cpp$|tests/.*\.cpp$|bench/.*\.cpp$' ||
      { record tidy FAIL "lint"; return; }
  else
    echo "${files}" | ${runner} clang-tidy -p build --quiet ||
      { record tidy FAIL "lint"; return; }
  fi
  record tidy PASS
}

for stage in "${STAGES[@]}"; do
  case "${stage}" in
    plain | release | asan-ubsan | tsan | race-ledger) run_preset "${stage}" ;;
    trace) run_trace ;;
    bench-diff) run_bench_diff ;;
    perfbench) run_perfbench ;;
    lint-spmd) run_lint_spmd ;;
    tidy) run_tidy ;;
    *)
      echo "unknown stage: ${stage}" >&2
      record "${stage}" FAIL "unknown stage"
      ;;
  esac
done

note "summary"
status=0
printf '%-14s %-6s %s\n' "stage" "result" "detail"
printf '%-14s %-6s %s\n' "-----" "------" "------"
for i in "${!RESULT_NAMES[@]}"; do
  printf '%-14s %-6s %s\n' "${RESULT_NAMES[$i]}" "${RESULT_CODES[$i]}" \
    "${RESULT_WHY[$i]}"
  if [ "${RESULT_CODES[$i]}" = FAIL ]; then status=1; fi
done
if [ "${status}" -ne 0 ]; then
  echo
  echo "FAILED: at least one stage failed (see table above)" >&2
fi
exit "${status}"
