/**
 * @file
 * Machine-readable bench reports.
 *
 * Every bench builds one of these alongside its printed TextTable and
 * calls write() at the end, producing BENCH_<name>.json next to the
 * binary so sweeps, CI, and the bench_diff regression gate can consume
 * the numbers without screen-scraping. Metric names are dotted paths
 * ("read.latency_us"); a metric with a paper value also records its
 * percentage deviation; histogram tails are published as .p50/.p90/
 * .p99/.p999 metrics. A metric read off the host clock is declared
 * with wallMetric(), which marks it "kind":"wall": bench_diff holds
 * every other metric to its baseline exactly.
 *
 * write() is atomic (temp file + rename), so a gate reading the report
 * concurrently — or a bench killed mid-write — never sees a torn file.
 */
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "sim/stats.h"

namespace remora::obs {

/** One bench run's metrics, checks, and notes; serializes to JSON. */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}

    /** Record one measured value; @p paper NaN means no paper figure. */
    void metric(const std::string &name, double value,
                const std::string &unit,
                double paper = std::numeric_limits<double>::quiet_NaN());

    /**
     * Record a rate measured on the host's wall clock ("kind":"wall"),
     * which bench_diff gates only against falling below
     * obs::kWallFloor of its baseline.
     */
    void wallMetric(const std::string &name, double value,
                    const std::string &unit);

    /**
     * Publish @p h's latency tail as "<name>.p50" / ".p90" / ".p99" /
     * ".p999" metrics (plus ".out_of_range" when any observation
     * escaped the bucketed range). No-op on an empty histogram.
     */
    void percentiles(const std::string &name, const sim::Histogram &h,
                     const std::string &unit);

    /** Record a pass/fail shape check. */
    void check(const std::string &name, bool ok);

    /** Attach free-form context (conditions, caveats). */
    void note(const std::string &text) { notes_.push_back(text); }

    /** The report as a JSON document. */
    std::string toJson() const;

    /**
     * Write the report atomically to BENCH_<name>.json in the working
     * directory (temp file + rename).
     *
     * @return True on success.
     */
    bool write() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        double paper;
        bool wall;
    };
    struct Check
    {
        std::string name;
        bool ok;
    };

    std::string name_;
    std::vector<Metric> metrics_;
    std::vector<Check> checks_;
    std::vector<std::string> notes_;
};

} // namespace remora::obs
