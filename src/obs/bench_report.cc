#include "obs/bench_report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "util/json.h"

namespace remora::obs {

void
BenchReport::metric(const std::string &name, double value,
                    const std::string &unit, double paper)
{
    metrics_.push_back({name, value, unit, paper, false});
}

void
BenchReport::wallMetric(const std::string &name, double value,
                        const std::string &unit)
{
    metrics_.push_back(
        {name, value, unit, std::numeric_limits<double>::quiet_NaN(), true});
}

void
BenchReport::percentiles(const std::string &name, const sim::Histogram &h,
                         const std::string &unit)
{
    if (h.total() == 0) {
        return;
    }
    metric(name + ".p50", h.quantile(0.50), unit);
    metric(name + ".p90", h.quantile(0.90), unit);
    metric(name + ".p99", h.quantile(0.99), unit);
    metric(name + ".p999", h.quantile(0.999), unit);
    if (h.outOfRange() != 0) {
        metric(name + ".out_of_range",
               static_cast<double>(h.outOfRange()), "samples");
    }
}

void
BenchReport::check(const std::string &name, bool ok)
{
    checks_.push_back({name, ok});
}

bool
BenchReport::allChecksPass() const
{
    for (const auto &c : checks_) {
        if (!c.ok) {
            return false;
        }
    }
    return true;
}

std::string
BenchReport::toJson() const
{
    util::JsonWriter w;
    w.beginObject();
    w.kv("bench", name_);
    w.key("metrics").beginArray();
    for (const auto &m : metrics_) {
        w.beginObject();
        w.kv("name", m.name);
        w.kv("value", m.value);
        if (!m.unit.empty()) {
            w.kv("unit", m.unit);
        }
        if (m.wall) {
            w.kv("kind", "wall");
        }
        if (!std::isnan(m.paper)) {
            w.kv("paper", m.paper);
            if (m.paper != 0.0) {
                w.kv("deviation_pct", 100.0 * (m.value - m.paper) / m.paper);
            }
        }
        w.endObject();
    }
    w.endArray();
    w.key("checks").beginArray();
    for (const auto &c : checks_) {
        w.beginObject().kv("name", c.name).kv("ok", c.ok).endObject();
    }
    w.endArray();
    w.key("notes").beginArray();
    for (const auto &n : notes_) {
        w.value(n);
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
BenchReport::write() const
{
    std::string path = "BENCH_" + name_ + ".json";
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "bench: cannot write %s\n", tmp.c_str());
            return false;
        }
        out << toJson() << "\n";
        out.flush();
        if (!out) {
            std::fprintf(stderr, "bench: short write to %s\n", tmp.c_str());
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "bench: cannot rename %s to %s\n", tmp.c_str(),
                     path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    std::printf("[bench report: %s]\n", path.c_str());
    return true;
}

} // namespace remora::obs
