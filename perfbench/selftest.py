#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For a short run of every workload in BENCHMARK.json it checks that

  - every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) is printed, by name and with its unit, both in the
    report and in the final JSON line, and every output check passes;
  - the simulated metrics of two runs with the same seed are identical;
  - the checks also pass on a held-out seed;
  - flipping one bit of one read result (--corrupt-read) makes the
    output check fail.

Exits 0 when everything holds, 1 otherwise.
"""
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build helper next to this file)

SIM_METRICS = ["sim_ops_per_s", "sim_lat_p50_us", "sim_lat_p99_us",
               "server_cpu_util"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
SECONDS = "0.5"

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(binary, workload, seed, trace, *extra):
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), *extra],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        check(False, f"{workload} seed={seed} trace={trace} {extra} exited "
                     f"{proc.returncode}")
        return proc.stdout, {"correct": False, "failed": -1, "metrics": {}}
    return proc.stdout, json.loads(lines[-1])


def metrics_printed(report, result, wanted):
    """Every wanted metric in the JSON with its unit and in the report."""
    missing = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        in_report = any(line.split()[:1] == [m["name"]] and
                        line.split()[-1] == m["unit"]
                        for line in report.splitlines())
        if got is None or got.get("unit") != m["unit"] or not in_report:
            missing.append(m["name"])
    return missing


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    for w in (x["name"] for x in spec["workloads"]):
        report, first = bench(binary, w, DEFAULT_SEED, 0)
        missing = metrics_printed(report, first, spec["end_to_end"])
        check(not missing, f"{w}: end-to-end metrics printed with units "
                           f"{missing or ''}")
        check(first["correct"] and first["failed"] == 0,
              f"{w}: checks pass, no failed op (seed {DEFAULT_SEED})")

        _, again = bench(binary, w, DEFAULT_SEED, 0)
        same = all(first["metrics"].get(m) == again["metrics"].get(m)
                   for m in SIM_METRICS)
        check(same, f"{w}: simulated metrics repeat exactly")

        report, traced = bench(binary, w, DEFAULT_SEED, 1)
        missing = metrics_printed(report, traced, spec["per_layer"])
        check(not missing, f"{w}: per-layer metrics printed with units "
                           f"{missing or ''}")
        check(traced["correct"], f"{w}: traced run reproduces the untraced "
                                 "one and drops no trace event")

        _, held = bench(binary, w, HELD_OUT_SEED, 0)
        check(held["correct"] and held["failed"] == 0,
              f"{w}: checks pass on held-out seed {HELD_OUT_SEED}")

        _, corrupt = bench(binary, w, DEFAULT_SEED, 0, "--corrupt-read")
        check(not corrupt["correct"],
              f"{w}: a corrupted read result fails the output check")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
