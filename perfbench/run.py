#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: rmem_small, dfs_dx, dfs_hy, dfs_dx_lossy (see BENCHMARK.json).
The first run configures and builds the remora libraries from src/ plus
the perfbench program (Release) into .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the sources or the build are missing or broken.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/CMakeLists.txt: run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release", *generator]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, configure)
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    if not BINARY.is_file():
        fail("build produced no perfbench binary")
    return BINARY


def seconds_arg(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            return float(value)
    return 10.0


def main(argv):
    binary = build()
    # Runs end after --seconds plus set-up, the traced trial and probes.
    timeout = min(170.0, 3 * seconds_arg(argv) + 60)
    try:
        proc = subprocess.run([str(binary), *argv], cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout:.0f} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
