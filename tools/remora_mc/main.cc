/**
 * @file
 * remora_mc: systematic schedule exploration over cluster workloads.
 *
 * Explores the workloads registered in src/cluster/workloads.cc: the
 * ScheduleExplorer re-executes each one once per same-instant
 * tie-break schedule (DFS with sleep-set reduction) and checks every
 * terminal state for deadlocks, lost wakeups, and blocked-forever
 * coroutines.
 *
 * The clean registry (rpc, notify, vector-notify, sync, dfs-token,
 * lossy-write, lossy-rpc) is the check.sh --mc gate: bounded
 * exploration must report zero findings. The seeded workloads
 * (deadlock, lost-wakeup) carry planted bugs and demonstrate detection
 * plus prefix shrinking:
 *
 *     remora_mc                      # explore the clean registry
 *     remora_mc deadlock lost-wakeup # demo the seeded bugs
 *     remora_mc --json sync          # machine-readable output
 *
 * Exit status is the total finding count clamped to 1 — except for
 * seeded workloads listed on the command line, whose findings are
 * expected and reported but do not fail the run. A malformed or zero
 * --max-schedules / --step-budget prints the usage and exits 2.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/workloads.h"
#include "obs/metrics.h"
#include "sim/explorer.h"
#include "util/json.h"
#include "util/strings.h"

namespace remora {
namespace {

std::string
choiceList(const std::vector<uint32_t> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i != 0) {
            out += ",";
        }
        out += std::to_string(v[i]);
    }
    return out + "]";
}

struct Options
{
    sim::ExplorerOptions explorer;
    bool json = false;
    bool metrics = false;
    std::vector<std::string> workloads;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--list] [--json] [--metrics] [--max-schedules N]\n"
        "          [--step-budget N] [--no-reduction] [--no-shrink]\n"
        "          [workload...]\n"
        "default workloads: every clean registry entry\n",
        argv0);
    return 2;
}

int
run(const Options &opts)
{
    // Explorers are kept alive to the end: the metric registry borrows
    // their counters ("mc.<workload>.*").
    std::vector<std::unique_ptr<sim::ScheduleExplorer>> explorers;
    auto &metrics = obs::MetricRegistry::global();
    uint64_t unexpected = 0;
    uint64_t totalSchedules = 0;
    uint64_t totalFindings = 0;
    std::string jsonOut = "{\"workloads\":[";
    bool firstJson = true;

    for (const std::string &name : opts.workloads) {
        const cluster::Workload *entry = cluster::findWorkload(name);
        if (entry == nullptr) {
            std::fprintf(stderr, "remora_mc: unknown workload '%s'\n",
                         name.c_str());
            return 2;
        }
        explorers.push_back(std::make_unique<sim::ScheduleExplorer>(
            entry->fn, opts.explorer));
        sim::ScheduleExplorer &ex = *explorers.back();
        sim::ExploreResult res = ex.explore();

        std::string prefix = "mc." + name + ".";
        metrics.add(prefix + "schedules", ex.schedulesRun());
        metrics.add(prefix + "decisions", ex.decisionsHit());
        metrics.add(prefix + "findings", ex.findingsFound());
        metrics.add(prefix + "sleep_skips", ex.sleepSkips());
        metrics.add(prefix + "shrink_runs", ex.shrinkRuns());

        totalSchedules += res.schedules;
        totalFindings += res.findings.size();
        if (!entry->seeded) {
            unexpected += res.findings.size();
        }

        if (opts.json) {
            if (!firstJson) {
                jsonOut += ",";
            }
            firstJson = false;
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"schedules\":%llu,"
                          "\"decisions\":%llu,\"sleep_skips\":%llu,"
                          "\"max_depth\":%llu,\"exhausted\":%s,"
                          "\"capped\":%s,\"digest\":\"0x%016llx\","
                          "\"findings\":[",
                          name.c_str(),
                          static_cast<unsigned long long>(res.schedules),
                          static_cast<unsigned long long>(res.decisions),
                          static_cast<unsigned long long>(res.sleepSkips),
                          static_cast<unsigned long long>(res.maxDepth),
                          res.exhausted ? "true" : "false",
                          res.capped ? "true" : "false",
                          static_cast<unsigned long long>(res.firstDigest));
            jsonOut += buf;
            for (size_t i = 0; i < res.findings.size(); ++i) {
                const sim::ExplorerFinding &f = res.findings[i];
                if (i != 0) {
                    jsonOut += ",";
                }
                jsonOut += "{\"kind\":\"";
                jsonOut += sim::HangReport::kindName(f.report.kind);
                jsonOut += "\",\"schedule\":" + std::to_string(f.schedule);
                jsonOut += ",\"detail\":\"";
                jsonOut += util::jsonEscape(f.report.detail) + "\"";
                jsonOut += ",\"parties\":[";
                for (size_t p = 0; p < f.report.parties.size(); ++p) {
                    if (p != 0) {
                        jsonOut += ",";
                    }
                    jsonOut +=
                        "\"" + util::jsonEscape(f.report.parties[p]) + "\"";
                }
                jsonOut += "],\"choices\":" + choiceList(f.choices);
                jsonOut += ",\"shrunk\":" + choiceList(f.shrunk) + "}";
            }
            jsonOut += "]}";
        } else {
            std::printf("workload=%s schedules=%llu decisions=%llu "
                        "prunes=%llu findings=%zu digest=0x%016llx%s%s\n",
                        name.c_str(),
                        static_cast<unsigned long long>(res.schedules),
                        static_cast<unsigned long long>(res.decisions),
                        static_cast<unsigned long long>(res.sleepSkips),
                        res.findings.size(),
                        static_cast<unsigned long long>(res.firstDigest),
                        res.capped ? " capped" : "",
                        res.exhausted ? " exhausted" : "");
            for (const sim::ExplorerFinding &f : res.findings) {
                std::printf("finding workload=%s schedule=%llu "
                            "shrunk=%s of %zu choices\n",
                            name.c_str(),
                            static_cast<unsigned long long>(f.schedule),
                            choiceList(f.shrunk).c_str(), f.choices.size());
                std::printf("%s", f.report.format().c_str());
            }
        }
    }

    if (opts.json) {
        jsonOut += "],\"total_schedules\":" + std::to_string(totalSchedules);
        jsonOut += ",\"total_findings\":" + std::to_string(totalFindings);
        jsonOut += ",\"unexpected_findings\":" + std::to_string(unexpected);
        jsonOut += "}";
        std::printf("%s\n", jsonOut.c_str());
    } else {
        std::printf("mc workloads=%zu schedules=%llu findings=%llu "
                    "unexpected=%llu\n",
                    opts.workloads.size(),
                    static_cast<unsigned long long>(totalSchedules),
                    static_cast<unsigned long long>(totalFindings),
                    static_cast<unsigned long long>(unexpected));
    }
    if (opts.metrics) {
        std::printf("%s", metrics.dump().c_str());
    }
    return unexpected == 0 ? 0 : 1;
}

} // namespace
} // namespace remora

int
main(int argc, char **argv)
{
    remora::Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto numArg = [&](uint64_t &out) {
            return i + 1 < argc && remora::util::parseNumber(argv[++i], out) &&
                   out >= 1;
        };
        if (arg == "--list") {
            for (const auto &e : remora::cluster::workloads()) {
                std::printf("%s%s\n", e.name, e.seeded ? " (seeded bug)" : "");
            }
            return 0;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--metrics") {
            opts.metrics = true;
        } else if (arg == "--no-reduction") {
            opts.explorer.reduction = false;
        } else if (arg == "--no-shrink") {
            opts.explorer.shrink = false;
        } else if (arg == "--max-schedules") {
            if (!numArg(opts.explorer.maxSchedules)) {
                return remora::usage(argv[0]);
            }
        } else if (arg == "--step-budget") {
            if (!numArg(opts.explorer.stepBudget)) {
                return remora::usage(argv[0]);
            }
        } else if (!arg.empty() && arg[0] == '-') {
            return remora::usage(argv[0]);
        } else {
            opts.workloads.push_back(arg);
        }
    }
    if (opts.workloads.empty()) {
        for (const auto &e : remora::cluster::workloads()) {
            if (!e.seeded) {
                opts.workloads.push_back(e.name);
            }
        }
    }
    return remora::run(opts);
}
