/**
 * @file
 * ScheduleExplorer: stateless model checking over simulator schedules.
 *
 * Seeded-bug fixtures (a cross-order lock deadlock and a racy
 * notification post/poll) must be found within a bounded exploration
 * budget, with replayable and shrinkable reproducers; clean workloads
 * must explore to zero findings with a stable schedule count; and the
 * sleep-set reduction must provably prune commuting interleavings
 * relative to brute-force DFS on the same workload.
 */
#include <gtest/gtest.h>

#include <string>

#include "cluster/workloads.h"
#include "sim/explorer.h"
#include "sim/simulator.h"
#include "util/panic.h"

namespace remora::test {
namespace {

// ----------------------------------------------------------------------
// Workload thunks. Each builds its whole world on the simulator it is
// handed and drives it to completion (or deadlock) before returning —
// the explorer replays them from scratch once per schedule. The lock
// and notification workloads come from the cluster registry.
// ----------------------------------------------------------------------

/** The registry's thunk called @p name. */
sim::ScheduleExplorer::Workload
registered(const char *name)
{
    const cluster::Workload *w = cluster::findWorkload(name);
    REMORA_ASSERT(w != nullptr);
    return w->fn;
}

/**
 * Four same-instant events, two hinted on channel 1 and two on channel
 * 2. Orders of the two dependent pairs matter (the digest records
 * execution order); cross-pair orders commute, so sleep sets must prune.
 */
void
hintedPairsWorkload(sim::Simulator &sim)
{
    for (uint64_t i = 0; i < 4; ++i) {
        sim::Simulator::HintScope scope(
            sim, sim::DepHint::channel(i < 2 ? 1 : 2));
        sim.schedule(sim::usec(10),
                     [&sim, i] { sim.noteDigest("ev", i); });
    }
    sim.run();
}

// ----------------------------------------------------------------------
// Seeded-bug detection
// ----------------------------------------------------------------------

TEST(Explorer, FindsCrossOrderLockDeadlock)
{
    sim::ExplorerOptions opts;
    opts.maxSchedules = 32;
    sim::ScheduleExplorer ex(registered("deadlock"), opts);
    sim::ExploreResult res = ex.explore();

    ASSERT_FALSE(res.findings.empty());
    const sim::ExplorerFinding *dead = nullptr;
    for (const auto &f : res.findings) {
        if (f.report.kind == sim::HangReport::Kind::kDeadlock) {
            dead = &f;
        }
    }
    ASSERT_NE(dead, nullptr) << "no deadlock among the findings";
    EXPECT_EQ(dead->report.parties.size(), 2u) << dead->report.format();
    // Reports carry the same site vocabulary the race detector uses.
    EXPECT_NE(dead->report.parties[0].find("spinlock node=1"),
              std::string::npos);

    // The shrunk reproducer is a prefix that still fails.
    EXPECT_LE(dead->shrunk.size(), dead->choices.size());
    auto replay = ex.runOnce(dead->shrunk);
    bool reproduced = false;
    for (const auto &rep : replay.reports) {
        reproduced |= rep.signature() == dead->report.signature();
    }
    EXPECT_TRUE(reproduced) << "shrunk prefix did not reproduce";
}

TEST(Explorer, FindsLostWakeup)
{
    sim::ExplorerOptions opts;
    opts.maxSchedules = 16;
    sim::ScheduleExplorer ex(registered("lost-wakeup"), opts);
    sim::ExploreResult res = ex.explore();

    EXPECT_TRUE(res.exhausted);
    ASSERT_EQ(res.findings.size(), 1u);
    const sim::ExplorerFinding &f = res.findings.front();
    EXPECT_EQ(f.report.kind, sim::HangReport::Kind::kLostWakeup);
    EXPECT_EQ(f.report.parties.size(), 1u);
    EXPECT_NE(f.report.parties[0].find("mc.token"), std::string::npos)
        << f.report.format();
    // Only one of the two orders loses the token.
    EXPECT_GE(res.schedules, 2u);
    EXPECT_GT(f.schedule, 0u) << "the default order should be clean";
}

// ----------------------------------------------------------------------
// Replay fidelity
// ----------------------------------------------------------------------

TEST(Explorer, RecordedChoicesReplayBitIdentically)
{
    sim::ScheduleExplorer ex(registered("lost-wakeup"));
    sim::ExploreResult res = ex.explore();
    ASSERT_EQ(res.findings.size(), 1u);
    const sim::ExplorerFinding &f = res.findings.front();

    // Replaying the failing schedule's full choice vector reproduces
    // both the digest and the finding, bit for bit, run after run.
    for (int round = 0; round < 2; ++round) {
        auto replay = ex.runOnce(f.choices);
        EXPECT_EQ(replay.digest, f.digest);
        ASSERT_EQ(replay.reports.size(), 1u);
        EXPECT_EQ(replay.reports[0].signature(), f.report.signature());
    }

    // And the default schedule replays to the explorer's first digest.
    auto first = ex.runOnce({});
    EXPECT_EQ(first.digest, res.firstDigest);
    EXPECT_TRUE(first.reports.empty());
}

// ----------------------------------------------------------------------
// Clean workloads stay clean, deterministically
// ----------------------------------------------------------------------

TEST(Explorer, CleanSpinLockWorkloadIsStableAcrossReruns)
{
    sim::ExplorerOptions opts;
    opts.maxSchedules = 40;
    sim::ScheduleExplorer ex1(registered("sync"), opts);
    sim::ScheduleExplorer ex2(registered("sync"), opts);
    sim::ExploreResult r1 = ex1.explore();
    sim::ExploreResult r2 = ex2.explore();

    EXPECT_TRUE(r1.findings.empty())
        << r1.findings.front().report.format();
    EXPECT_TRUE(r2.findings.empty());
    EXPECT_EQ(r1.schedules, r2.schedules);
    EXPECT_EQ(r1.decisions, r2.decisions);
    EXPECT_EQ(r1.firstDigest, r2.firstDigest);
    EXPECT_GE(r1.schedules, 2u) << "contention should branch the schedule";
}

// ----------------------------------------------------------------------
// Reduction: sleep sets prune commuting interleavings, soundly
// ----------------------------------------------------------------------

TEST(Explorer, SleepSetReductionBeatsBruteForce)
{
    sim::ExplorerOptions brute;
    brute.reduction = false;
    sim::ScheduleExplorer bruteEx(hintedPairsWorkload, brute);
    sim::ExploreResult bruteRes = bruteEx.explore();

    sim::ScheduleExplorer reducedEx(hintedPairsWorkload);
    sim::ExploreResult reducedRes = reducedEx.explore();

    // Brute force enumerates every total order of 4 same-instant
    // events: 4 * 3 * 2 = 24 schedules.
    EXPECT_TRUE(bruteRes.exhausted);
    EXPECT_EQ(bruteRes.schedules, 24u);
    EXPECT_TRUE(bruteRes.findings.empty());

    // Only the relative order within each dependent pair matters
    // (2 x 2 = 4 equivalence classes); the reduction must stay sound
    // (cover at least those) while exploring measurably fewer orders.
    EXPECT_TRUE(reducedRes.exhausted);
    EXPECT_TRUE(reducedRes.findings.empty());
    EXPECT_GE(reducedRes.schedules, 4u);
    EXPECT_LT(reducedRes.schedules, bruteRes.schedules);
    EXPECT_GT(reducedRes.sleepSkips, 0u);
    EXPECT_EQ(reducedRes.firstDigest, bruteRes.firstDigest);
}

TEST(Explorer, CountersAccumulateAcrossExplores)
{
    sim::ScheduleExplorer ex(registered("lost-wakeup"));
    (void)ex.explore();
    EXPECT_GE(ex.schedulesRun().value(), 2u);
    EXPECT_GE(ex.decisionsHit().value(), 1u);
    EXPECT_EQ(ex.findingsFound().value(), 1u);
    EXPECT_GE(ex.shrinkRuns().value(), 1u);
}

} // namespace
} // namespace remora::test
