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
#   - remora race at seeds 0-7 and remora faults at seeds 0-7 with 5%
#     cell drop (each line prints two digests: `schedule=` folds every
#     schedule, exec, cancel and policy choice, so it is equal only for
#     equal event structure; `semantic=` folds only the components'
#     noteDigest milestones, so it is equal for equal behaviour);
#   - remora explore --max-schedules 60 --json (per-workload schedule
#     counts, decisions and digests) and the seeded workloads,
#     remora explore deadlock lost-wakeup --max-schedules 60;
#   - remora prof --json and remora prof --probe (critical paths), each
#     with --trace, run from build-equiv/prof.{ref,work}/ with a relative
#     trace path so the printed command lines match; the two Chrome
#     trace files are compared byte for byte too;
#   - every example, from a scratch directory under build-equiv/,
#     keeping its stdout and the trace and metrics JSON quickstart
#     writes;
#   - ctest -L bench_smoke (the baselined benches' BENCH_*.json) and
#     every other bench both trees build, from a scratch directory
#     under build-equiv/;
#   - build/perfbench/perfbench_driver on each of the four perfbench
#     workloads at seeds 1 and 9001 (--seconds 1 --trace 0), keeping
#     only the fields pooled over its fixed stream seeds: the digest=
#     and window_ops= values, the op_fail_frac line, the verdict
#     (`correct`) and the four simulated end-to-end metrics. Trial
#     counts and host metrics depend on the host and are left out. A
#     reference without the driver skips this stage with a note.
#
# The examples are those the reference's build tree holds, so a new one
# is covered without editing this script. A reference older than the
# remora CLI runs, for each subcommand, the program it replaced.
#
# It fails on any byte difference in the probe, prof trace, example or
# perfbench output, including exit codes, and on any BENCH report that
# fails bench_diff REF_DIR WORK_DIR, the rule the bench_baselines_match
# ctest applies: every simulated metric equal, and each wall-clock rate
# (marked "kind":"wall" in either report) at least a tenth of the
# reference's. The one exception is a probe line's `schedule=` digest:
# a change may alter the event structure on purpose (defer an event
# that changes nothing, say), so differing schedule digests are listed
# as a note, and the semantic digest on the same line must still
# match. `remora explore` prints only schedule digests, under a policy
# that runs every event, and is compared byte for byte. Every stage
# runs; the script exits 1 at the end if any of them differed. Outputs
# are kept in build-equiv/ for inspection.

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

# Run `remora SUBCOMMAND ARGS` from the tree rooted at $1. A tree built
# before the CLI existed runs the program the subcommand replaced.
remora_in() {
    local tools="$1/build/tools" cmd="$2"
    shift 2
    if [[ -x "${tools}/remora/remora" ]]; then
        "${tools}/remora/remora" "${cmd}" "$@"
        return
    fi
    case "${cmd}" in
        race) "${tools}/race_probe/race_probe" "$@" ;;
        faults) "${tools}/fault_probe/fault_probe" "$@" ;;
        explore) "${tools}/remora_mc/remora_mc" "$@" ;;
        prof) "${tools}/remora_prof/remora_prof" "$@" ;;
    esac
}

# One probe's output, then its command line and exit status.
probe() {
    local rc=0
    remora_in "$@" || rc=$?
    echo "${*:2} exit=${rc}"
}

# Every probe line plus its exit status, in a fixed order. remora prof
# runs from directory $2 and writes its Chrome traces there.
probe_outputs() {
    local seed mode root
    root="$(cd "$1" && pwd)"
    for seed in 0 1 2 3 4 5 6 7; do
        probe "$1" race "${seed}"
    done
    for seed in 0 1 2 3 4 5 6 7; do
        probe "$1" faults "${seed}" 0.05
    done
    probe "$1" explore --max-schedules 60 --json
    probe "$1" explore deadlock lost-wakeup --max-schedules 60
    rm -rf "$2"
    mkdir -p "$2"
    for mode in json probe; do
        (cd "$2" && probe "${root}" prof "--${mode}" \
            --trace "prof-${mode}.trace.json")
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
        FAILED+=("bench")
    }
}

# The pooled fields of the perfbench report on stdin (see the top).
pooled_fields() {
    sed -n -E \
        -e 's/^trials=.* (window_ops=[0-9]+) .* (digest=[0-9a-f]+)$/\1 \2/p' \
        -e '/^op_fail_frac=/p' \
        -e 's/^\{"correct": (true|false),.*/correct=\1/p' \
        -e '/^  (sim_ops_per_s|sim_lat_p(50|99)_us|server_cpu_util) /p'
}

# Each perfbench run's pooled fields and exit status, from the driver
# the tree rooted at $1 built; the full reports go to directory $2.
perfbench_outputs() {
    local driver="$1/build/perfbench/perfbench_driver" w seed rc report
    rm -rf "$2"
    mkdir -p "$2"
    for w in rmem_small dfs_dx dfs_hy dfs_dx_lossy; do
        for seed in 1 9001; do
            report="$2/${w}.${seed}.txt"
            rc=0
            "${driver}" --workload "${w}" --seed "${seed}" --seconds 1 \
                --trace 0 >"${report}" 2>&1 || rc=$?
            echo "perfbench ${w} seed=${seed} exit=${rc}"
            pooled_fields <"${report}"
        done
    done
}

# Probe output $1 with its schedule digests blanked.
without_schedule() {
    sed -E 's/schedule=0x[0-9a-f]+/schedule=*/' "$1"
}

FAILED=()

echo "== equiv: exporting ${REF} into ${OUT}/ref =="
rm -rf "${OUT}/ref"
mkdir -p "${OUT}/ref"
git archive "${REF}" | tar -x -C "${OUT}/ref"

echo "== equiv: building reference and working tree =="
build_tree "${OUT}/ref"
build_tree .

echo "== equiv: probes =="
probe_outputs "${OUT}/ref" "${OUT}/prof.ref" >"${OUT}/probes.ref.txt" 2>&1
probe_outputs . "${OUT}/prof.work" >"${OUT}/probes.work.txt" 2>&1
if ! diff -u <(without_schedule "${OUT}/probes.ref.txt") \
    <(without_schedule "${OUT}/probes.work.txt"); then
    echo "equiv: probe output differs from ${REF}" >&2
    FAILED+=("probes")
elif cmp -s "${OUT}/probes.ref.txt" "${OUT}/probes.work.txt"; then
    echo "  $(wc -l <"${OUT}/probes.work.txt") probe lines identical"
else
    echo "  $(wc -l <"${OUT}/probes.work.txt") probe lines identical" \
        "but for schedule digests"
    echo "  note: the schedule digest differs on these lines:"
    { diff "${OUT}/probes.ref.txt" "${OUT}/probes.work.txt" || true; } |
        sed -n 's/^> /    /p'
fi

echo "== equiv: prof traces =="
for mode in json probe; do
    trace="prof-${mode}.trace.json"
    if cmp "${OUT}/prof.ref/${trace}" "${OUT}/prof.work/${trace}"; then
        echo "  ${trace} identical"
    else
        echo "equiv: ${trace} differs from ${REF}" >&2
        FAILED+=("${trace}")
    fi
done

echo "== equiv: examples =="
example_outputs "${OUT}/ref" "${OUT}/examples.ref"
example_outputs . "${OUT}/examples.work"
if ! diff -r "${OUT}/examples.ref" "${OUT}/examples.work"; then
    echo "equiv: example output differs from ${REF}" >&2
    FAILED+=("examples")
else
    echo "  $(ls "${OUT}/examples.work" | wc -l) example outputs identical"
fi

echo "== equiv: bench reports =="
bench_reports "${OUT}/ref" "${OUT}/bench.ref"
bench_reports . "${OUT}/bench.work"
bench_identical "${OUT}/ref/build/bench" build/bench
# bench_diff refuses two empty directories, so compare the other benches'
# reports only when there are other benches.
if [[ -n "$(nonsmoke_benches)" ]]; then
    bench_identical "${OUT}/bench.ref" "${OUT}/bench.work"
fi

echo "== equiv: perfbench simulated results =="
if [[ -x "${OUT}/ref/build/perfbench/perfbench_driver" ]]; then
    perfbench_outputs "${OUT}/ref" "${OUT}/perfbench.ref" \
        >"${OUT}/perfbench.ref.txt"
    perfbench_outputs . "${OUT}/perfbench.work" >"${OUT}/perfbench.work.txt"
    if ! diff -u "${OUT}/perfbench.ref.txt" "${OUT}/perfbench.work.txt"; then
        echo "equiv: perfbench simulated results differ from ${REF}" >&2
        FAILED+=("perfbench")
    else
        echo "  $(wc -l <"${OUT}/perfbench.work.txt") perfbench lines identical"
    fi
else
    echo "  note: ${REF} builds no perfbench_driver; stage skipped"
fi

echo
if [[ ${#FAILED[@]} -gt 0 ]]; then
    echo "equiv.sh: ${FAILED[*]} differ from ${REF}" >&2
    exit 1
fi
echo "equiv.sh: behaviour identical to ${REF}"
