#!/usr/bin/env bash
#
# Behaviour oracle: show that the working tree simulates exactly what a
# reference commit simulates.
#
#   scripts/equiv.sh REF          # e.g. scripts/equiv.sh HEAD~1
#
# The simulator is deterministic, so a refactor proves it preserved
# behaviour by matching outputs byte for byte rather than "within 5%".
# The script exports REF (git archive, so no worktree bookkeeping is
# left behind) into build-equiv/ref/, builds it there and the working
# tree in build/ (both with -DREMORA_WERROR=ON), and in each tree runs
#
#   - race_probe seeds 0-7 and fault_probe seeds 0-7 at 5% cell drop
#     (each line folds the determinism digest over every schedule,
#     exec and cancel, so equal lines mean equal event structure);
#   - remora_mc --max-schedules 60 --json (per-workload schedule
#     counts, decisions and digests) and the seeded workloads,
#     remora_mc deadlock lost-wakeup --max-schedules 60;
#   - remora_prof --json and remora_prof --probe (critical paths);
#   - every example, from a scratch directory under build-equiv/,
#     keeping its stdout and the trace and metrics JSON quickstart
#     writes;
#   - ctest -L bench_smoke (the baselined benches' BENCH_*.json) and
#     every other bench both trees build, from a scratch directory
#     under build-equiv/.
#
# The examples are those the reference's build tree holds, so a new one
# is covered without editing this script.
#
# It fails on any byte difference in the probe or example output,
# including exit codes, and on any BENCH report that fails
# bench_diff REF_DIR WORK_DIR, the rule scripts/check.sh --bench
# applies: every simulated metric equal, and each wall-clock rate
# (marked "kind":"wall" in either report) at least a tenth of the
# reference's. Outputs are kept in build-equiv/ for inspection.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: scripts/equiv.sh REF" >&2
    exit 2
fi
REF="$(git rev-parse --verify "$1^{commit}")"
JOBS="$(nproc 2>/dev/null || echo 4)"
OUT=build-equiv

build_tree() {
    local src="$1"
    cmake -B "${src}/build" -S "${src}" -DREMORA_WERROR=ON >/dev/null
    cmake --build "${src}/build" -j "${JOBS}" >/dev/null
}

# Every probe line plus its exit status, in a fixed order.
probe_outputs() {
    local tools="$1/build/tools"
    local seed rc mode
    for seed in 0 1 2 3 4 5 6 7; do
        rc=0
        "${tools}/race_probe/race_probe" "${seed}" || rc=$?
        echo "race_probe ${seed} exit=${rc}"
    done
    for seed in 0 1 2 3 4 5 6 7; do
        rc=0
        "${tools}/fault_probe/fault_probe" "${seed}" 0.05 || rc=$?
        echo "fault_probe ${seed} exit=${rc}"
    done
    rc=0
    "${tools}/remora_mc/remora_mc" --max-schedules 60 --json || rc=$?
    echo "remora_mc exit=${rc}"
    rc=0
    "${tools}/remora_mc/remora_mc" deadlock lost-wakeup \
        --max-schedules 60 || rc=$?
    echo "remora_mc deadlock lost-wakeup exit=${rc}"
    for mode in --json --probe; do
        rc=0
        "${tools}/remora_prof/remora_prof" "${mode}" || rc=$?
        echo "remora_prof ${mode} exit=${rc}"
    done
}

# The executables CMake built in directory $1, one name per line.
executables_in() {
    find "$1" -maxdepth 1 -type f -perm -u+x -printf '%f\n' | sort
}

# The benches both trees build, outside the bench_smoke set.
nonsmoke_benches() {
    comm -12 <(executables_in "${OUT}/ref/build/bench") \
        <(executables_in build/bench) | grep -vxF -f <(
        (cd "${OUT}/ref/build" && ctest -N -L bench_smoke) |
            sed -n 's/^ *Test *#[0-9]*: \(.*\)_smoke$/\1/p')
}

# Each of the reference's examples' stdout and exit status, plus the
# JSON files quickstart writes into its working directory, all in
# directory $2.
example_outputs() {
    local bin ex rc
    bin="$(cd "$1/build/examples" && pwd)"
    rm -rf "$2"
    mkdir -p "$2"
    for ex in $(executables_in "${OUT}/ref/build/examples"); do
        rc=0
        (cd "$2" && "${bin}/${ex}") >"$2/${ex}.out" 2>&1 || rc=$?
        echo "exit=${rc}" >>"$2/${ex}.out"
    done
}

# Smoke reports land in $1/build/bench; the other benches' in $2.
bench_reports() {
    local bin b
    (cd "$1/build" && ctest -L bench_smoke -j "${JOBS}" >/dev/null) || {
        echo "equiv: bench_smoke failed in $1" >&2
        exit 1
    }
    bin="$(cd "$1/build/bench" && pwd)"
    rm -rf "$2"
    mkdir -p "$2"
    for b in $(nonsmoke_benches); do
        (cd "$2" && "${bin}/${b}" >/dev/null) || {
            echo "equiv: ${b} failed in $1" >&2
            exit 1
        }
    done
}

# Every report in $1 must pass bench_diff against $2.
bench_identical() {
    ./build/tools/bench_diff/bench_diff "$1" "$2" || {
        echo "equiv: a BENCH metric differs from ${REF}" >&2
        exit 1
    }
}

echo "== equiv: exporting ${REF} into ${OUT}/ref =="
rm -rf "${OUT}/ref"
mkdir -p "${OUT}/ref"
git archive "${REF}" | tar -x -C "${OUT}/ref"

echo "== equiv: building reference and working tree =="
build_tree "${OUT}/ref"
build_tree .

echo "== equiv: probes =="
probe_outputs "${OUT}/ref" >"${OUT}/probes.ref.txt" 2>&1
probe_outputs . >"${OUT}/probes.work.txt" 2>&1
if ! diff -u "${OUT}/probes.ref.txt" "${OUT}/probes.work.txt"; then
    echo "equiv: probe output differs from ${REF}" >&2
    exit 1
fi
echo "  $(wc -l <"${OUT}/probes.work.txt") probe lines identical"

echo "== equiv: examples =="
example_outputs "${OUT}/ref" "${OUT}/examples.ref"
example_outputs . "${OUT}/examples.work"
if ! diff -r "${OUT}/examples.ref" "${OUT}/examples.work"; then
    echo "equiv: example output differs from ${REF}" >&2
    exit 1
fi
echo "  $(ls "${OUT}/examples.work" | wc -l) example outputs identical"

echo "== equiv: bench reports =="
bench_reports "${OUT}/ref" "${OUT}/bench.ref"
bench_reports . "${OUT}/bench.work"
bench_identical "${OUT}/ref/build/bench" build/bench
bench_identical "${OUT}/bench.ref" "${OUT}/bench.work"

echo
echo "equiv.sh: behaviour identical to ${REF}"
