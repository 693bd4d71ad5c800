#!/usr/bin/env bash
#
# Tier-1 verification and correctness gates.
#
#   scripts/check.sh            # RelWithDebInfo -Werror build + full test suite
#   scripts/check.sh --lint     # + remora-lint over src/, tests/, tools/, bench/
#   scripts/check.sh --tidy     # + clang-tidy profile (.clang-tidy)
#   scripts/check.sh --format   # + clang-format dry run (.clang-format)
#   scripts/check.sh --asan     # + ASan/UBSan/LSan suite in build-asan/
#   scripts/check.sh --all      # every gate above
#
# Gates are additive: the primary build and test suite always run, and
# each flag layers one more check on top. The suite includes the probe
# gates, which are ctests: `remora race` and `remora faults` at seeds
# 0-7, and `remora explore` over the clean workload registry (label
# `mc`), so --asan runs them under the sanitizers too. It also runs the
# armed race sweep (label `race`): every test of the race-clean
# binaries again with the detector fatal (REMORA_RACE=1) under each of
# the perturbed schedules 0-7 (REMORA_PERTURB=<seed>). The primary
# suite also runs the exact bench gate: the smoke benches (label
# `bench_smoke`), then bench_diff against bench/baselines (the
# `bench_baselines_match` test); the sanitizer tree builds no benches.
# --tidy and --format need the LLVM binaries; when they are not
# installed the gate is skipped with a notice (and counted as skipped in
# the summary) instead of failing, so CI images without clang still get
# the full remora-lint pass, which carries the project-specific rules.
#
# The sanitizer pass uses a separate build tree (build-asan/) so it
# never perturbs the primary build directory.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

DO_LINT=0
DO_TIDY=0
DO_FORMAT=0
DO_ASAN=0
for arg in "$@"; do
    case "${arg}" in
        --lint) DO_LINT=1 ;;
        --tidy) DO_TIDY=1 ;;
        --format) DO_FORMAT=1 ;;
        --asan) DO_ASAN=1 ;;
        --all) DO_LINT=1; DO_TIDY=1; DO_FORMAT=1; DO_ASAN=1 ;;
        -h|--help)
            sed -n '2,/^$/p' "$0" | sed 's/^# \{0,1\}//'
            exit 0
            ;;
        *)
            echo "check.sh: unknown flag '${arg}' (try --help)" >&2
            exit 2
            ;;
    esac
done

GATES_RUN=()

run_suite() {
    local dir="$1"
    shift
    cmake -B "${dir}" -S . "$@"
    cmake --build "${dir}" -j "${JOBS}"
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
}

# Leak detection stays ON. Only the eternal server-loop coroutine frames
# (parked awaiting the next request at process exit) are excused, each
# by name, in scripts/lsan.supp — a real leak anywhere else fails the
# --asan gate.
export LSAN_OPTIONS="suppressions=${PWD}/scripts/lsan.supp${LSAN_OPTIONS:+:${LSAN_OPTIONS}}"

echo "== tier-1: primary build and tests =="
run_suite build -DREMORA_WERROR=ON
GATES_RUN+=("build+tests")

if [[ "${DO_LINT}" == 1 ]]; then
    echo
    echo "== lint: remora-lint over src/, tests/, tools/, bench/ =="
    # Everything lintable, including the drivers and benches (with the
    # relaxed per-path profile optionsForPath() gives them), plus the
    # flow rules and the include-layer check over the src/ DAG. The
    # one-line summary carries the flow-finding and layer-violation
    # counts the gate acts on.
    cmake --build build -j "${JOBS}" --target remora_lint
    ./build/tools/remora_lint/remora_lint --root . src tests tools bench
    GATES_RUN+=("lint")
fi

if [[ "${DO_TIDY}" == 1 ]]; then
    echo
    echo "== tidy: clang-tidy (.clang-tidy profile) =="
    if command -v clang-tidy >/dev/null 2>&1; then
        # compile_commands.json is exported by the primary configure.
        git ls-files 'src/**/*.cc' 'tools/**/*.cc' |
            xargs -P "${JOBS}" -n 4 clang-tidy -p build --quiet
        GATES_RUN+=("tidy")
    else
        echo "clang-tidy not installed; skipping (remora-lint carries" \
             "the project-specific rules)"
        GATES_RUN+=("tidy[skipped]")
    fi
fi

if [[ "${DO_FORMAT}" == 1 ]]; then
    echo
    echo "== format: clang-format dry run (.clang-format) =="
    if command -v clang-format >/dev/null 2>&1; then
        git ls-files '*.h' '*.cc' '*.cpp' |
            xargs -P "${JOBS}" -n 8 clang-format --dry-run --Werror
        GATES_RUN+=("format")
    else
        echo "clang-format not installed; skipping"
        GATES_RUN+=("format[skipped]")
    fi
fi

if [[ "${DO_ASAN}" == 1 ]]; then
    echo
    echo "== sanitizer pass: ASan + UBSan + LSan =="
    run_suite build-asan -DREMORA_SANITIZE=ON -DREMORA_BUILD_BENCH=OFF
    GATES_RUN+=("asan")
fi

echo
echo "check.sh: all green — gates: ${GATES_RUN[*]}"
