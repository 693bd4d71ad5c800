/**
 * @file
 * Shared helpers for the reproduction benches: canned clusters, task
 * drivers, and paper-vs-measured table rendering.
 */
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

#include "cluster/cluster.h"
#include "obs/bench_report.h"
#include "sim/task.h"
#include "util/panic.h"
#include "util/strings.h"

namespace remora::bench {

/** Two directly-linked nodes (the paper's measurement testbed). */
struct TwoNode : cluster::Cluster
{
    mem::Node &nodeA;
    mem::Node &nodeB;
    rmem::RmemEngine &engineA;
    rmem::RmemEngine &engineB;

    explicit TwoNode(const rmem::CostModel &costs = {})
        : Cluster({.names = {"client", "server"}, .costs = costs}),
          nodeA(*nodes[0]), nodeB(*nodes[1]), engineA(*engines[0]),
          engineB(*engines[1])
    {}
};

/** Drive the simulator until @p task finishes; returns its result. */
template <typename T>
T
run(sim::Simulator &sim, sim::Task<T> &task)
{
    while (!task.done() && sim.step()) {
    }
    if (!task.done()) {
        REMORA_PANIC("bench task stalled: event queue drained");
    }
    return task.result();
}

inline void
run(sim::Simulator &sim, sim::Task<void> &task)
{
    while (!task.done() && sim.step()) {
    }
    if (!task.done()) {
        REMORA_PANIC("bench task stalled: event queue drained");
    }
    task.result();
}

/** Format a "percent of paper value" deviation column. */
inline std::string
deviation(double measured, double paper)
{
    if (paper == 0.0) {
        return "-";
    }
    double pct = 100.0 * (measured - paper) / paper;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", pct);
    return buf;
}

/** Format a double with the given precision. */
inline std::string
fmt(double v, int prec = 1)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

/** Print a bench header banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/**
 * Machine-readable mirror of a bench's printed table; lives in obs so
 * tools (bench_diff) and tests share it. See obs/bench_report.h.
 */
using BenchReport = obs::BenchReport;

} // namespace remora::bench
