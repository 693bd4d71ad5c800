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
#     counts, decisions and digests);
#   - ctest -L bench_smoke (the baselined benches' BENCH_*.json).
#
# It fails on any byte difference in the probe output, including exit
# codes, and on any BENCH metric that differs at bench_diff --tol 0,
# except the three wall-clock rates (explore.schedules_per_sec,
# tree.files_per_sec, corpus.files_per_sec). Outputs are kept in
# build-equiv/ for inspection.

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
    local seed rc
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
}

bench_reports() {
    (cd "$1/build" && ctest -L bench_smoke -j "${JOBS}" >/dev/null) || {
        echo "equiv: bench_smoke failed in $1" >&2
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

echo "== equiv: bench reports =="
bench_reports "${OUT}/ref"
bench_reports .
./build/tools/bench_diff/bench_diff --tol 0 \
    --tol-metric explore.schedules_per_sec=1e12 \
    --tol-metric tree.files_per_sec=1e12 \
    --tol-metric corpus.files_per_sec=1e12 \
    "${OUT}/ref/build/bench" build/bench || {
    echo "equiv: a BENCH metric differs from ${REF}" >&2
    exit 1
}

echo
echo "equiv.sh: behaviour identical to ${REF}"
