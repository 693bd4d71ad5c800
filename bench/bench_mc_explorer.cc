/**
 * @file
 * Throughput and reduction bench for the stateless model checker.
 *
 * Two measurements, both over workloads small enough to explore
 * exhaustively:
 *
 *  - explore: schedules/second replaying the registry's `sync`
 *    workload, two-node remote-spin-lock contention (world
 *    construction, full run, wait-graph scan, teardown — the whole
 *    per-schedule cost the mc gate pays). Wall-clock, so it is a
 *    wallMetric(): the gate fails it only below a tenth of baseline.
 *  - reduction: brute-force vs sleep-set schedule counts on four
 *    same-instant events hinted as two dependent pairs. These counts
 *    are pure functions of the DFS, so the baseline holds them
 *    exactly; a change means the reduction itself changed.
 */
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "cluster/workloads.h"
#include "sim/explorer.h"

using namespace remora;

namespace {

/** Four same-instant events, hinted as two independent dependent pairs. */
void
hintedPairsWorkload(sim::Simulator &sim)
{
    for (uint64_t i = 0; i < 4; ++i) {
        sim::Simulator::HintScope scope(sim,
                                        sim::DepHint::channel(i < 2 ? 1 : 2));
        sim.schedule(sim::usec(10), [&sim, i] { sim.noteDigest("ev", i); });
    }
    sim.run();
}

} // namespace

int
main()
{
    bench::banner("remora-mc: schedule exploration throughput");
    const sim::ScheduleExplorer::Workload spinLockWorkload =
        cluster::findWorkload("sync")->fn;

    // Warm-up pass keeps first-touch page faults out of the timed run.
    {
        sim::ExplorerOptions warm;
        warm.maxSchedules = 4;
        sim::ScheduleExplorer ex(spinLockWorkload, warm);
        (void)ex.explore();
    }

    // The clean tree is exhausted in a handful of schedules, so repeat
    // the whole exploration until the timed window is long enough for a
    // stable rate.
    constexpr int kRounds = 100;
    sim::ExplorerOptions opts;
    opts.maxSchedules = 200;
    uint64_t totalSchedules = 0;
    sim::ExploreResult res;
    auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < kRounds; ++round) {
        sim::ScheduleExplorer ex(spinLockWorkload, opts);
        res = ex.explore();
        REMORA_ASSERT(res.findings.empty());
        totalSchedules += res.schedules;
    }
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    double perSec = elapsed > 0.0
                        ? static_cast<double>(totalSchedules) / elapsed
                        : 0.0;

    sim::ExplorerOptions brute;
    brute.reduction = false;
    sim::ScheduleExplorer bruteEx(hintedPairsWorkload, brute);
    sim::ExploreResult bruteRes = bruteEx.explore();
    sim::ScheduleExplorer reducedEx(hintedPairsWorkload);
    sim::ExploreResult reducedRes = reducedEx.explore();

    std::printf("explore: %llu schedules over %d rounds in %.3fs "
                "(%.0f schedules/s)\n",
                static_cast<unsigned long long>(totalSchedules), kRounds,
                elapsed, perSec);
    std::printf("reduction: brute %llu vs sleep-set %llu schedules "
                "(%llu skips)\n",
                static_cast<unsigned long long>(bruteRes.schedules),
                static_cast<unsigned long long>(reducedRes.schedules),
                static_cast<unsigned long long>(reducedRes.sleepSkips));

    bench::BenchReport report("mc_explorer");
    report.wallMetric("explore.schedules_per_sec", perSec, "1/s");
    report.metric("explore.schedules", static_cast<double>(res.schedules),
                  "count");
    report.metric("explore.decisions", static_cast<double>(res.decisions),
                  "count");
    report.metric("reduction.brute_schedules",
                  static_cast<double>(bruteRes.schedules), "count");
    report.metric("reduction.reduced_schedules",
                  static_cast<double>(reducedRes.schedules), "count");
    report.metric("reduction.sleep_skips",
                  static_cast<double>(reducedRes.sleepSkips), "count");
    report.check("clean_workload_no_findings", res.findings.empty());
    report.check("exploration_exhausted", res.exhausted);
    report.check("reduction_beats_brute",
                 reducedRes.schedules < bruteRes.schedules);
    report.check("reduction_sound_same_first_digest",
                 reducedRes.firstDigest == bruteRes.firstDigest);
    report.note("explore times the full per-schedule cost: world build, "
                "run to quiescence, wait-graph scan, teardown");
    report.write();
    return 0;
}
