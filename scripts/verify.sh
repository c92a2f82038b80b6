#!/usr/bin/env bash
# Tier-1 verification: configure + build + ctest in Debug and Release with
# warnings-as-errors, mirroring .github/workflows/ci.yml.
#
# Usage:  scripts/verify.sh [--tsan] [--asan] [--lint] [--tidy] [--clean]
#                           [--help]
#   --tsan   additionally build the threading-sensitive suites with
#            -fsanitize=thread and run them (proves the corpus builder,
#            thread pool, bounded-buffer pipeline, and link simulator
#            race-free)
#   --asan   additionally build the RNG/kernel/solver/detection/link/
#            hybrid/pipeline suites (and the QUBO deserializer's) with
#            -fsanitize=address,undefined and run them (mirrors the CI asan
#            job)
#   --lint   additionally run the repo contract linter (scripts/hcq_lint.py)
#            and its selftest over the fixture tree
#   --tidy   additionally run the clang-tidy gate (scripts/run_tidy.sh);
#            requires clang-tidy on PATH or CLANG_TIDY set
#   --clean  remove the build trees first
#   --help   print this help
#
# The gate covers the whole tree, including the end-to-end link simulator
# (src/link, examples/link_sim, bench/bench_link_e2e — the measured-stage-
# latency path; see docs/ARCHITECTURE.md).  CI additionally builds the
# Doxygen docs target (-DHCQ_BUILD_DOCS=ON) and uploads a BENCH_*.json
# artifact from bench_link_e2e (the bench-smoke job), so documentation and
# perf-trajectory breakage surface in review instead of rotting silently.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    # Prints the header comment block (everything up to the first non-'#'
    # line), so the help text cannot drift out of sync with it.
    sed -n '/^#/!q; 2,$s/^# \{0,1\}//p' "$0"
}

run_tsan=0
run_asan=0
run_lint=0
run_tidy=0
clean=0
for arg in "$@"; do
    case "$arg" in
        --tsan) run_tsan=1 ;;
        --asan) run_asan=1 ;;
        --lint) run_lint=1 ;;
        --tidy) run_tidy=1 ;;
        --clean) clean=1 ;;
        --help|-h) usage; exit 0 ;;
        *) echo "unknown argument: $arg" >&2; usage >&2; exit 2 ;;
    esac
done

# Cheap gates first: a lint finding should surface before a full rebuild.
if [[ $run_lint -eq 1 ]]; then
    echo "== lint: repo contract linter + selftest =="
    python3 scripts/hcq_lint.py
    python3 tests/lint_selftest/selftest.py
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

for config in Debug Release; do
    dir="build-verify-$(echo "$config" | tr '[:upper:]' '[:lower:]')"
    [[ $clean -eq 1 ]] && rm -rf "$dir"
    echo "== $config: configure + build + ctest =="
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE="$config" -DHCQ_WARNINGS_AS_ERRORS=ON
    cmake --build "$dir" -j "$jobs"
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
done

if [[ $run_tsan -eq 1 ]]; then
    dir="build-verify-tsan"
    [[ $clean -eq 1 ]] && rm -rf "$dir"
    echo "== TSan: corpus builder + thread pool + link simulator + pipeline + ARQ + serve =="
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHCQ_SANITIZE=thread \
        -DHCQ_BUILD_EXAMPLES=OFF -DHCQ_BUILD_BENCHES=OFF
    cmake --build "$dir" -j "$jobs" --target parallel_runner_test util_test link_test \
        paths_test pipeline_test arq_test serve_test workspace_test
    "$dir/tests/parallel_runner_test"
    "$dir/tests/util_test" --gtest_filter='ThreadPool.*:ParallelFor.*'
    "$dir/tests/link_test"
    "$dir/tests/paths_test"
    "$dir/tests/pipeline_test"
    "$dir/tests/arq_test"
    "$dir/tests/serve_test"
    "$dir/tests/workspace_test"
fi

if [[ $run_asan -eq 1 ]]; then
    dir="build-asan"
    [[ $clean -eq 1 ]] && rm -rf "$dir"
    echo "== ASan+UBSan: RNG + kernels + solvers + detection paths + link simulator + hybrid + pipeline + ARQ + FEC + serve =="
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHCQ_SANITIZE=address \
        -DHCQ_BUILD_EXAMPLES=OFF -DHCQ_BUILD_BENCHES=OFF
    cmake --build "$dir" -j "$jobs" --target util_test linalg_test solvers_test device_test \
        detect_test wireless_test qubo_test extensions_test paths_test link_test hybrid_test \
        pipeline_test arq_test fec_test serve_test workspace_test
    "$dir/tests/util_test" --gtest_filter='Rng.*:Spec.*'
    "$dir/tests/linalg_test"
    "$dir/tests/solvers_test"
    "$dir/tests/device_test"
    "$dir/tests/detect_test"
    "$dir/tests/wireless_test"
    "$dir/tests/qubo_test"
    "$dir/tests/extensions_test"
    "$dir/tests/paths_test"
    "$dir/tests/link_test"
    "$dir/tests/hybrid_test"
    "$dir/tests/pipeline_test"
    "$dir/tests/arq_test"
    "$dir/tests/fec_test"
    "$dir/tests/serve_test"
    "$dir/tests/workspace_test"
fi

if [[ $run_tidy -eq 1 ]]; then
    echo "== clang-tidy: curated check set vs scripts/tidy_baseline.txt =="
    scripts/run_tidy.sh
fi

echo "verify: all gates passed"
