/**
 * @file
 * Bench regression comparison: baseline report vs candidate report.
 *
 * The regression gate (the bench_baselines_match ctest, run after the
 * bench_smoke benches) compares each fresh BENCH_<name>.json against
 * the checked-in copy under bench/baselines/; the behaviour oracle
 * (scripts/equiv.sh) compares two trees' reports the same way. There
 * is one rule, and it has no settings:
 *
 *   - A simulated metric must equal its baseline exactly, as printed
 *     (JsonWriter's 6 significant digits). The simulator is
 *     deterministic, so any move is a model change, and it ships with
 *     a refreshed baseline rather than hiding inside a tolerance.
 *   - A wall-clock metric (BenchReport::wallMetric(), "kind":"wall" in
 *     either report) is a host rate that moves with the machine: it
 *     fails only when it falls below kWallFloor of its baseline, so an
 *     order-of-magnitude slowdown is caught and noise is not.
 *
 * A metric or check that disappears fails structurally, as does a
 * metric whose value is not a number (JsonWriter writes NaN as null)
 * and a check that flips to false. New metrics in the candidate are
 * reported but do not fail — they are what a baseline refresh is for.
 *
 * The comparison logic lives here in the library (not in the CLI) so
 * the unit tests can drive it on synthetic reports — including the
 * injected-regression case the gate is contractually required to
 * catch.
 */
#pragma once

#include <string>
#include <vector>

#include "util/json.h"

namespace remora::obs {

/** A wall-clock metric fails below this fraction of its baseline. */
inline constexpr double kWallFloor = 0.1;

/** One compared metric. */
struct BenchDiffEntry
{
    std::string metric;
    double baseline = 0.0;
    double candidate = 0.0;
    /** Wall-clock rate (either report marks it): floor-gated, not exact. */
    bool wall = false;
    bool ok = true;
};

/** Outcome of comparing one bench's reports. */
struct BenchDiffResult
{
    /** Bench name from the baseline report. */
    std::string bench;
    /** Per-metric comparisons, baseline order. */
    std::vector<BenchDiffEntry> entries;
    /**
     * Structural failures: missing or non-numeric metrics, flipped
     * checks, bad JSON.
     */
    std::vector<std::string> errors;
    /** Candidate-only metric names (informational). */
    std::vector<std::string> fresh;

    /** True when every metric passes its rule and errors is empty. */
    bool pass() const;

    /** Human-readable rendering, one line per finding. */
    std::string render() const;
};

/**
 * Compare two parsed bench reports.
 *
 * @param baseline The checked-in reference report.
 * @param candidate The freshly generated report.
 */
BenchDiffResult diffReports(const util::JsonValue &baseline,
                            const util::JsonValue &candidate);

/** diffReports() over raw JSON text; parse errors land in errors. */
BenchDiffResult diffReportText(const std::string &baselineText,
                               const std::string &candidateText);

} // namespace remora::obs
