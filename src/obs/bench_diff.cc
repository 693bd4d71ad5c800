#include "obs/bench_diff.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

namespace remora::obs {

namespace {

/** One metric of a report, as the gate reads it. */
struct Metric
{
    /** NaN when the report holds no number there (JsonWriter's null). */
    double value;
    bool wall;
};

/** Flat name -> metric view of a report's "metrics" array. */
std::map<std::string, Metric>
metricMap(const util::JsonValue &report, std::vector<std::string> *order)
{
    std::map<std::string, Metric> out;
    const util::JsonValue *metrics = report.find("metrics");
    if (metrics == nullptr || !metrics->isArray()) {
        return out;
    }
    for (const util::JsonValue &m : metrics->items()) {
        const util::JsonValue *name = m.find("name");
        if (name == nullptr || !name->isString()) {
            continue;
        }
        const util::JsonValue *value = m.find("value");
        const util::JsonValue *kind = m.find("kind");
        Metric metric{value != nullptr && value->isNumber()
                          ? value->asNumber()
                          : std::numeric_limits<double>::quiet_NaN(),
                      kind != nullptr && kind->asString() == "wall"};
        if (out.emplace(name->asString(), metric).second &&
            order != nullptr) {
            order->push_back(name->asString());
        }
    }
    return out;
}

/** Flat name -> ok view of a report's "checks" array. */
std::map<std::string, bool>
checkMap(const util::JsonValue &report)
{
    std::map<std::string, bool> out;
    const util::JsonValue *checks = report.find("checks");
    if (checks == nullptr || !checks->isArray()) {
        return out;
    }
    for (const util::JsonValue &c : checks->items()) {
        const util::JsonValue *name = c.find("name");
        const util::JsonValue *ok = c.find("ok");
        if (name != nullptr && name->isString() && ok != nullptr &&
            ok->isBool()) {
            out.emplace(name->asString(), ok->asBool());
        }
    }
    return out;
}

} // namespace

bool
BenchDiffResult::pass() const
{
    if (!errors.empty()) {
        return false;
    }
    for (const auto &e : entries) {
        if (!e.ok) {
            return false;
        }
    }
    return true;
}

std::string
BenchDiffResult::render() const
{
    std::string out;
    char line[256];
    for (const auto &err : errors) {
        out += "  FAIL  " + err + "\n";
    }
    for (const auto &e : entries) {
        if (e.ok) {
            continue;
        }
        char delta[32] = "";
        if (e.baseline != 0.0) {
            std::snprintf(delta, sizeof(delta), "%+.1f%%, ",
                          100.0 * (e.candidate - e.baseline) /
                              std::abs(e.baseline));
        }
        char rule[64] = "simulated metric must equal baseline";
        if (e.wall) {
            std::snprintf(rule, sizeof(rule),
                          "wall-clock rate fell below %g x baseline",
                          kWallFloor);
        }
        std::snprintf(line, sizeof(line), "  FAIL  %s: %.6g -> %.6g (%s%s)\n",
                      e.metric.c_str(), e.baseline, e.candidate, delta, rule);
        out += line;
    }
    for (const auto &name : fresh) {
        out += "  note  new metric (not in baseline): " + name + "\n";
    }
    if (out.empty()) {
        std::snprintf(line, sizeof(line),
                      "  ok    %zu metrics (simulated exact, wall-clock "
                      "above %g x baseline)\n",
                      entries.size(), kWallFloor);
        out = line;
    }
    return out;
}

BenchDiffResult
diffReports(const util::JsonValue &baseline, const util::JsonValue &candidate)
{
    BenchDiffResult result;
    const util::JsonValue *bname = baseline.find("bench");
    if (bname != nullptr && bname->isString()) {
        result.bench = bname->asString();
    }
    const util::JsonValue *cname = candidate.find("bench");
    if (cname != nullptr && cname->isString() && cname->asString() !=
        result.bench) {
        result.errors.push_back("bench name mismatch: baseline \"" +
                                result.bench + "\" vs candidate \"" +
                                cname->asString() + "\"");
    }

    std::vector<std::string> order;
    auto base = metricMap(baseline, &order);
    auto cand = metricMap(candidate, nullptr);
    for (const auto &name : order) {
        auto it = cand.find(name);
        if (it == cand.end()) {
            result.errors.push_back("metric missing from candidate: " + name);
            continue;
        }
        const Metric &b = base.at(name);
        const Metric &c = it->second;
        if (std::isnan(b.value) || std::isnan(c.value)) {
            result.errors.push_back(
                std::string("metric is not a number in ") +
                (std::isnan(b.value) ? "baseline: " : "candidate: ") + name);
            continue;
        }
        BenchDiffEntry e;
        e.metric = name;
        e.baseline = b.value;
        e.candidate = c.value;
        e.wall = b.wall || c.wall;
        e.ok = e.wall ? e.candidate >= kWallFloor * e.baseline
                      : e.candidate == e.baseline;
        result.entries.push_back(e);
    }
    for (const auto &[name, value] : cand) {
        (void)value;
        if (base.find(name) == base.end()) {
            result.fresh.push_back(name);
        }
    }

    auto baseChecks = checkMap(baseline);
    auto candChecks = checkMap(candidate);
    for (const auto &[name, ok] : baseChecks) {
        auto it = candChecks.find(name);
        if (it == candChecks.end()) {
            result.errors.push_back("check missing from candidate: " + name);
        } else if (ok && !it->second) {
            result.errors.push_back("check regressed to false: " + name);
        }
    }
    for (const auto &[name, ok] : candChecks) {
        if (!ok && baseChecks.find(name) == baseChecks.end()) {
            result.errors.push_back("new check is failing: " + name);
        }
    }
    return result;
}

BenchDiffResult
diffReportText(const std::string &baselineText,
               const std::string &candidateText)
{
    auto base = util::JsonValue::parse(baselineText);
    if (!base.ok()) {
        BenchDiffResult r;
        r.errors.push_back("baseline unparsable: " +
                           base.status().toString());
        return r;
    }
    auto cand = util::JsonValue::parse(candidateText);
    if (!cand.ok()) {
        BenchDiffResult r;
        r.errors.push_back("candidate unparsable: " +
                           cand.status().toString());
        return r;
    }
    return diffReports(base.value(), cand.value());
}

} // namespace remora::obs
