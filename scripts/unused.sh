#!/usr/bin/env bash
#
# Dead-code sweep: list the remora:: functions defined in src/ that no
# program keeps.
#
#   scripts/unused.sh
#
# One build in build-unused/ compiles everything at -O0 with
# -fkeep-inline-functions (so a header-inline function is emitted in
# every src/ object that sees it) and -ffunction-sections, and links
# with --gc-sections (so each executable keeps only what it reaches).
# The script then reads the symbols with nm -C --defined-only, text
# and weak only:
#
#   - defined: every remora:: function in an object under src/;
#   - programs: those kept by a non-test executable (the benches, the
#     examples, the tools and perfbench_driver);
#   - tests: those kept by an executable under tests/.
#
# It prints defined minus programs in two lists, "only tests call"
# (kept by a test) and "nothing calls" (kept by no executable), then
# the counts. Lambdas and the .actor/.destroy clones of coroutines are
# skipped: they go with the function that owns them. A function listed
# here has no caller in any program; whether it should go is a
# decision, not a rule (a test may use an accessor to observe what a
# program does). The script takes no flags and exits 0.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 0 ]]; then
    echo "usage: scripts/unused.sh" >&2
    exit 2
fi
JOBS="$(nproc 2>/dev/null || echo 4)"
OUT=build-unused

cmake -B "${OUT}" -S . -DCMAKE_BUILD_TYPE=None \
      -DCMAKE_CXX_FLAGS="-O0 -fkeep-inline-functions -ffunction-sections" \
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
cmake --build "${OUT}" -j "${JOBS}" >/dev/null

# Demangled remora:: functions (text or weak) defined in the given
# files, one per line, sorted and unique.
functions_in() {
    nm -C --defined-only "$@" 2>/dev/null |
        awk '$2 ~ /^[TtWw]$/ { sub(/^[0-9a-f]+ [TtWw] /, ""); print }' |
        grep -E '^([^ (<]+ )?remora::' |
        grep -vE '\{lambda\(|\[clone \.(actor|destroy)\]' |
        LC_ALL=C sort -u
}

executables() {
    find "${OUT}" -path "${OUT}/CMakeFiles" -prune -o -type f -perm -u+x \
         -print | while read -r f; do
        [[ "$(head -c 4 "${f}")" == $'\x7fELF' ]] && echo "${f}"
    done
}

mapfile -t objects < <(find "${OUT}/src" -name '*.o' | LC_ALL=C sort)
mapfile -t all_exes < <(executables | LC_ALL=C sort)
test_exes=()
program_exes=()
for exe in "${all_exes[@]}"; do
    case "${exe}" in
        "${OUT}"/tests/*) test_exes+=("${exe}") ;;
        *) program_exes+=("${exe}") ;;
    esac
done

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT
functions_in "${objects[@]}" >"${TMP}/defined"
functions_in "${program_exes[@]}" >"${TMP}/programs"
functions_in "${test_exes[@]}" >"${TMP}/tests"
LC_ALL=C comm -23 "${TMP}/defined" "${TMP}/programs" >"${TMP}/unused"
LC_ALL=C comm -12 "${TMP}/unused" "${TMP}/tests" >"${TMP}/only_tests"
LC_ALL=C comm -23 "${TMP}/unused" "${TMP}/tests" >"${TMP}/nothing"

echo "== only tests call =="
cat "${TMP}/only_tests"
echo
echo "== nothing calls =="
cat "${TMP}/nothing"
echo
echo "unused.sh: ${#program_exes[@]} programs, ${#test_exes[@]} test" \
     "binaries; $(wc -l <"${TMP}/defined") functions defined in src/," \
     "$(wc -l <"${TMP}/only_tests") only tests call," \
     "$(wc -l <"${TMP}/nothing") nothing calls"
