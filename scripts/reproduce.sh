#!/usr/bin/env bash
# One-shot reproduction: build, run the test suite, regenerate every paper
# table/figure, and collect the outputs.
#
#   scripts/reproduce.sh [--fast] [smoke|small|full]
#
# smoke finishes in minutes on one core; small (default) is the recorded
# configuration; full is ~4x small.
#
# Sanitizer modes (smoke scale only):
#   default  — thorough: the FULL test suite under ASan+UBSan, then the
#              concurrent serving subset under TSan. This is the
#              pre-release gate; budget ~3x the plain smoke time.
#   --fast   — both sanitizer legs run only the TSan-filtered concurrent
#              subset CI uses (serving_engine_test serving_test
#              thread_pool_test backend_equivalence_test integration_test
#              obs_test program_test trainer_test — the last two cover the
#              fused graph-program replay, which dispatches onto the same
#              shared pool). Catches the races and lifetime bugs that
#              actually involve threads in a fraction of the time; use it
#              for iterating, keep the default for sign-off.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
if [ "${1:-}" = "--fast" ]; then
  FAST=1
  shift
fi
SCALE="${1:-small}"
export NMCDR_BENCH_SCALE="$SCALE"

# The concurrent-surface test subset (mirrors the CI tsan-serving job).
# program_test / trainer_test exercise the fused graph-program replay
# (fusion is default-on) next to the pool-backed tests.
SANITIZER_SUBSET=(serving_engine_test serving_test thread_pool_test
  backend_equivalence_test integration_test obs_test program_test
  trainer_test)

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Static verification gate: symbolically shape-check every registered model
# over every scenario preset (plus the gradient-coverage audit) before any
# training binary runs. Fails the reproduction on any finding.
./build/tools/nmcdr_analyze --scale="$SCALE" --gradcheck \
  --report=analyze_report.txt

# Static hot-path gate: the serving hot path must stay allocation-, throw-,
# and copy-free (ctest already ran hotpath_lint_test; re-running here keeps
# the report next to the other gates and renders the hot call tree that
# documents exactly which functions the zero-alloc discipline covers).
./build/tools/nmcdr_lint --hotpath . 2>&1 | tee hotpath_lint_report.txt
./build/tools/nmcdr_hotpath --dot=hot_path.dot --text=hot_path.txt . \
  | tee hotpath_report.txt

# In smoke mode, additionally run the sanitizer matrix (separate
# instrumented build trees): ASan+UBSan (full suite, or the concurrent
# subset under --fast) and the concurrent serving runtime under TSan.
# Each leg is skipped when the toolchain lacks the runtime.
sanitizer_available() {
  echo 'int main(){return 0;}' \
    | c++ "-fsanitize=$1" -x c++ - -o "build/sanitize_probe_${1//,/_}" \
        2>/dev/null
}

run_subset() {
  # NMCDR_THREADS=4 gives the shared pool four workers, so the
  # observability shards and the pool-backed serving path run concurrently
  # under the sanitizer.
  local tree="$1"
  local t
  for t in "${SANITIZER_SUBSET[@]}"; do
    NMCDR_THREADS=4 "./$tree/tests/$t"
  done
}

if [ "$SCALE" = "smoke" ]; then
  if sanitizer_available address,undefined; then
    cmake -B build-asan -G Ninja -DNMCDR_SANITIZE=address,undefined
    if [ "$FAST" = 1 ]; then
      cmake --build build-asan --target "${SANITIZER_SUBSET[@]}"
      run_subset build-asan
    else
      cmake --build build-asan
      ctest --test-dir build-asan --output-on-failure
    fi
  else
    echo "no ASan/UBSan runtime available; skipping sanitized suite"
  fi
  if sanitizer_available thread; then
    cmake -B build-tsan -G Ninja -DNMCDR_SANITIZE=thread
    cmake --build build-tsan --target "${SANITIZER_SUBSET[@]}"
    run_subset build-tsan
  else
    echo "no TSan runtime available; skipping sanitized serving tests"
  fi
fi

mkdir -p "results/$SCALE"
{
  for b in build/bench/*; do
    if [ -x "$b" ] && [ -f "$b" ]; then
      echo "===== $b ====="
      "$b"
    fi
  done
} 2>&1 | tee bench_output.txt
mv -f ./*.csv "results/$SCALE"/ 2>/dev/null || true

echo
echo "done: test_output.txt, analyze_report.txt, hotpath_lint_report.txt," \
     "hotpath_report.txt, bench_output.txt, results/$SCALE/*.csv"
