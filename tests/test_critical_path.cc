/**
 * @file
 * Critical-path analyzer and bench regression comparator tests.
 *
 * The analyzer is exercised two ways: on hand-built synthetic event
 * DAGs where every slice's attribution is known in advance, and on a
 * real traced READ across the two-node fixture, where the cross-node
 * span linkage (op-id propagation through the wire) is what is under
 * test. The bench_diff section drives the comparator's one rule on
 * synthetic reports: simulated metrics exact, wall-clock rates floored,
 * including the injected-regression case the check.sh gate is
 * contractually required to catch.
 */
#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "cluster_fixture.h"
#include "obs/bench_diff.h"
#include "obs/bench_report.h"
#include "obs/critical_path.h"
#include "obs/trace.h"
#include "rmem/engine.h"

namespace remora {
namespace {

using test::TwoNodeCluster;
using test::runToCompletion;

/** Recorder is process-wide: reset around every test in this binary. */
class CriticalPathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::TraceRecorder::instance().disable();
        obs::TraceRecorder::instance().clear();
    }

    void
    TearDown() override
    {
        obs::TraceRecorder::instance().disable();
        obs::TraceRecorder::instance().clear();
    }
};

// ----------------------------------------------------------------------
// Synthetic DAGs: attribution known in advance
// ----------------------------------------------------------------------

obs::TraceEvent
asyncBeginEv(uint64_t id, sim::Time ts, const char *node, const char *name,
             uint64_t parent = 0)
{
    obs::TraceEvent ev;
    ev.phase = obs::TracePhase::kAsyncBegin;
    ev.ts = ts;
    ev.id = id;
    ev.op = id;
    ev.parent = parent;
    ev.node = node;
    ev.comp = "test";
    ev.name = name;
    return ev;
}

obs::TraceEvent
asyncEndEv(uint64_t id, sim::Time ts, const char *node, const char *name)
{
    obs::TraceEvent ev;
    ev.phase = obs::TracePhase::kAsyncEnd;
    ev.ts = ts;
    ev.id = id;
    ev.op = id;
    ev.node = node;
    ev.comp = "test";
    ev.name = name;
    return ev;
}

obs::TraceEvent
spanEv(uint64_t op, sim::Time ts, sim::Duration dur, const char *node)
{
    obs::TraceEvent ev;
    ev.phase = obs::TracePhase::kSpan;
    ev.ts = ts;
    ev.dur = dur;
    ev.op = op;
    ev.node = node;
    ev.comp = "test";
    ev.name = "work";
    return ev;
}

obs::TraceEvent
arrivalEv(uint64_t op, sim::Time ts, const char *node)
{
    obs::TraceEvent ev;
    ev.phase = obs::TracePhase::kInstant;
    ev.ts = ts;
    ev.op = op;
    ev.node = node;
    ev.comp = "net";
    ev.name = std::string(obs::kCellArrivalEvent);
    return ev;
}

TEST_F(CriticalPathTest, SyntheticDagAttributesEveryPhase)
{
    // Window [0,100] on initiator A with one hop to B:
    //   [ 0,20)  span on A                -> software A      20
    //   [20,30)  gap up to the arrival    -> wire B          10
    //   [30,35)  interrupt latency (5)    -> controller B     5
    //   [35,40)  gap after the interrupt  -> queueing B       5
    //   [40,70)  span on B                -> software B      30
    //   [70,100) tail gap, no arrival     -> queueing A      30
    std::vector<obs::TraceEvent> events = {
        asyncBeginEv(1, 0, "A", "op"),
        spanEv(1, 0, 20, "A"),
        arrivalEv(1, 30, "B"),
        spanEv(1, 40, 30, "B"),
        asyncEndEv(1, 100, "A", "op"),
    };
    obs::CriticalPathParams params;
    params.interruptLatency = 5;
    auto paths = obs::CriticalPathAnalyzer(params).analyze(events);

    ASSERT_EQ(paths.size(), 1u);
    const obs::OpCriticalPath &p = paths[0];
    EXPECT_EQ(p.id, 1u);
    EXPECT_EQ(p.name, "op");
    EXPECT_EQ(p.initiator, "A");
    EXPECT_EQ(p.latency(), 100);
    EXPECT_EQ(p.totals.software, 50);
    EXPECT_EQ(p.totals.wire, 10);
    EXPECT_EQ(p.totals.controller, 5);
    EXPECT_EQ(p.totals.queueing, 35);
    EXPECT_EQ(p.totals.total(), p.latency());

    // Per-node attribution.
    ASSERT_TRUE(p.perNode.count("A"));
    ASSERT_TRUE(p.perNode.count("B"));
    EXPECT_EQ(p.perNode.at("A").software, 20);
    EXPECT_EQ(p.perNode.at("A").queueing, 30);
    EXPECT_EQ(p.perNode.at("B").software, 30);
    EXPECT_EQ(p.perNode.at("B").wire, 10);
    EXPECT_EQ(p.perNode.at("B").controller, 5);
    EXPECT_EQ(p.perNode.at("B").queueing, 5);

    // The slice timeline is gap-free over the window.
    sim::Duration covered = 0;
    for (const auto &s : p.slices) {
        covered += s.duration();
    }
    EXPECT_EQ(covered, p.latency());
}

TEST_F(CriticalPathTest, OverlappingSpansCountOnce)
{
    std::vector<obs::TraceEvent> events = {
        asyncBeginEv(1, 0, "A", "op"),
        spanEv(1, 0, 50, "A"),
        spanEv(1, 30, 30, "A"), // overlaps [30,50), extends to 60
        asyncEndEv(1, 60, "A", "op"),
    };
    auto paths = obs::CriticalPathAnalyzer().analyze(events);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].totals.software, 60);
    EXPECT_EQ(paths[0].totals.queueing, 0);
    EXPECT_EQ(paths[0].totals.total(), 60);
}

TEST_F(CriticalPathTest, GapWithNoArrivalIsQueueingOnNextNode)
{
    // The op waits 40 units before its only span runs on B: a pure
    // dispatch delay, charged as queueing where the work eventually ran.
    std::vector<obs::TraceEvent> events = {
        asyncBeginEv(1, 0, "A", "op"),
        spanEv(1, 40, 10, "B"),
        asyncEndEv(1, 50, "A", "op"),
    };
    auto paths = obs::CriticalPathAnalyzer().analyze(events);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].totals.queueing, 40);
    EXPECT_EQ(paths[0].totals.software, 10);
    EXPECT_EQ(paths[0].perNode.at("B").queueing, 40);
}

TEST_F(CriticalPathTest, IncompleteOpsAreSkipped)
{
    std::vector<obs::TraceEvent> events = {
        asyncBeginEv(1, 0, "A", "op"),
        spanEv(1, 0, 20, "A"),
        // no asyncEnd: still in flight at export
        asyncBeginEv(2, 10, "A", "done"),
        asyncEndEv(2, 30, "A", "done"),
    };
    auto paths = obs::CriticalPathAnalyzer().analyze(events);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].id, 2u);
}

TEST_F(CriticalPathTest, SummarizeGroupsByName)
{
    std::vector<obs::TraceEvent> events = {
        asyncBeginEv(1, 0, "A", "op"),   asyncEndEv(1, 40, "A", "op"),
        asyncBeginEv(2, 100, "A", "op"), asyncEndEv(2, 160, "A", "op"),
        asyncBeginEv(3, 200, "A", "other"),
        asyncEndEv(3, 210, "A", "other"),
    };
    auto paths = obs::CriticalPathAnalyzer().analyze(events);
    auto summary = obs::CriticalPathAnalyzer::summarize(paths);
    ASSERT_EQ(summary.size(), 2u);
    EXPECT_EQ(summary.at("op").count, 2u);
    EXPECT_EQ(summary.at("op").minLatency, 40);
    EXPECT_EQ(summary.at("op").maxLatency, 60);
    EXPECT_EQ(summary.at("other").count, 1u);

    std::string text = obs::CriticalPathAnalyzer::renderText(paths);
    EXPECT_NE(text.find("op"), std::string::npos);
    EXPECT_NE(text.find("other"), std::string::npos);
    std::string json = obs::CriticalPathAnalyzer::toJson(paths);
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
}

// ----------------------------------------------------------------------
// Cross-node linkage: a real traced READ on the two-node fixture
// ----------------------------------------------------------------------

TEST_F(CriticalPathTest, TracedReadLinksAcrossNodes)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    auto seg = c.engineB.exportSegment(server, base, 4096, rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "data");
    ASSERT_TRUE(seg.ok());
    mem::Process &client = c.nodeA.spawnProcess("client");
    mem::Vaddr lbase = client.space().allocRegion(4096);
    auto local = c.engineA.exportSegment(client, lbase, 4096,
                                         rmem::Rights::kAll,
                                         rmem::NotifyPolicy::kNever, "local");
    ASSERT_TRUE(local.ok());
    c.sim.run(); // drain export costs before tracing

    auto &rec = obs::TraceRecorder::instance();
    rec.enable(c.sim);

    // An umbrella op makes the read's asyncBegin record a parent link
    // (the read task starts eagerly, inside the scope).
    uint64_t umbrella = rec.newAsyncId();
    rec.asyncBegin(umbrella, "nodeA", "test", "umbrella");
    std::optional<obs::OpScope> scope;
    scope.emplace(umbrella);
    auto task = c.engineA.read(seg.value(), 0,
                               local.value().descriptor, 0, 40);
    scope.reset();
    rmem::ReadOutcome out = runToCompletion(c.sim, task);
    ASSERT_TRUE(out.status.ok());
    rec.asyncEnd(umbrella, "nodeA", "test", "umbrella");
    rec.disable();

    auto paths = obs::CriticalPathAnalyzer().analyze(rec.events());
    const obs::OpCriticalPath *read = nullptr;
    for (const auto &p : paths) {
        if (p.name == "read") {
            ASSERT_EQ(read, nullptr) << "expected exactly one read op";
            read = &p;
        }
    }
    ASSERT_NE(read, nullptr);

    // Parent link to the umbrella op, established at eager start.
    EXPECT_EQ(read->parent, umbrella);
    EXPECT_EQ(read->initiator, "nodeA");

    // The DAG crosses nodes: both appear in the per-node breakdown, and
    // the server side did real attributed work.
    ASSERT_TRUE(read->perNode.count("nodeA"));
    ASSERT_TRUE(read->perNode.count("nodeB"));
    EXPECT_GT(read->perNode.at("nodeB").software, 0);

    // Both directions were on the wire, both NICs interrupted.
    EXPECT_GT(read->totals.wire, 0);
    EXPECT_GT(read->totals.controller, 0);

    // The attributed timeline is exhaustive: phases sum to latency.
    EXPECT_EQ(read->totals.total(), read->latency());

    // The arrival anchors themselves carried the op id on both nodes.
    int arrivals[2] = {0, 0};
    for (const auto &ev : rec.events()) {
        if (ev.phase == obs::TracePhase::kInstant &&
            ev.name == obs::kCellArrivalEvent && ev.op == read->id) {
            ++arrivals[ev.node == "nodeA" ? 0 : 1];
        }
    }
    EXPECT_EQ(arrivals[0], 1); // response landing at the client
    EXPECT_EQ(arrivals[1], 1); // request landing at the server
}

// ----------------------------------------------------------------------
// bench_diff: the regression comparator
// ----------------------------------------------------------------------

/** A minimal report with one latency metric and one check. */
std::string
reportJson(double latencyUs, bool checkOk = true)
{
    obs::BenchReport r("synthetic");
    r.metric("op.latency_us", latencyUs, "us");
    r.metric("op.throughput_mbps", 120.0, "Mb/s");
    r.check("shape_holds", checkOk);
    return r.toJson();
}

/** A report holding one host rate, declared wall-clock or not. */
std::string
rateJson(double perSec, bool wall)
{
    obs::BenchReport r("synthetic");
    if (wall) {
        r.wallMetric("op.rate_per_sec", perSec, "1/s");
    } else {
        r.metric("op.rate_per_sec", perSec, "1/s");
    }
    return r.toJson();
}

TEST(BenchDiff, IdenticalReportsPass)
{
    auto result = obs::diffReportText(reportJson(100.0), reportJson(100.0));
    EXPECT_TRUE(result.pass()) << result.render();
    ASSERT_EQ(result.entries.size(), 2u);
    EXPECT_FALSE(result.entries[0].wall);
}

TEST(BenchDiff, TwentyPercentRegressionFails)
{
    // The contract of scripts/check.sh --bench: a 20% latency
    // regression must fail, and the report names the metric and move.
    auto result = obs::diffReportText(reportJson(100.0), reportJson(120.0));
    EXPECT_FALSE(result.pass());
    std::string rendered = result.render();
    EXPECT_NE(rendered.find("op.latency_us"), std::string::npos);
    EXPECT_NE(rendered.find("+20.0%"), std::string::npos);
}

TEST(BenchDiff, ImprovementsAlsoFailTwoSided)
{
    // A surprise 20% speedup wants the baseline refreshed, not ignored.
    auto result = obs::diffReportText(reportJson(100.0), reportJson(80.0));
    EXPECT_FALSE(result.pass());
}

TEST(BenchDiff, SmallestPrintableChangeFailsBothWays)
{
    // Reports print 6 significant digits. The simulator is
    // deterministic, so a move in the last of them is a model change.
    for (double moved : {100.001, 99.999}) {
        auto result =
            obs::diffReportText(reportJson(100.0), reportJson(moved));
        EXPECT_FALSE(result.pass()) << moved;
        EXPECT_NE(result.render().find(
                      "simulated metric must equal baseline"),
                  std::string::npos)
            << result.render();
    }
}

TEST(BenchDiff, WallMetricFailsOnlyBelowTheFloor)
{
    std::string base = rateJson(100.0, true);
    ASSERT_EQ(obs::kWallFloor * 100.0, 10.0);
    // Exactly the floor passes, and so does any rise.
    EXPECT_TRUE(obs::diffReportText(base, rateJson(10.0, true)).pass());
    EXPECT_TRUE(obs::diffReportText(base, rateJson(1e6, true)).pass());
    auto slow = obs::diffReportText(base, rateJson(9.99999, true));
    EXPECT_FALSE(slow.pass());
    ASSERT_EQ(slow.entries.size(), 1u);
    EXPECT_TRUE(slow.entries[0].wall);
    EXPECT_NE(slow.render().find("wall-clock rate fell below 0.1 x baseline"),
              std::string::npos)
        << slow.render();
}

TEST(BenchDiff, WallKindHonouredFromEitherReport)
{
    // A report from before the kind field carries no mark: a wall mark
    // on either side selects the floor rule.
    EXPECT_TRUE(obs::diffReportText(rateJson(100.0, false),
                                    rateJson(50.0, true))
                    .pass());
    EXPECT_TRUE(obs::diffReportText(rateJson(100.0, true),
                                    rateJson(50.0, false))
                    .pass());
    // Unmarked on both sides, the same move is a simulated metric's.
    EXPECT_FALSE(obs::diffReportText(rateJson(100.0, false),
                                     rateJson(50.0, false))
                     .pass());
}

TEST(BenchDiff, NonNumericMetricIsStructuralFailure)
{
    // JsonWriter writes a NaN as null. A null baseline value must not
    // leave the metric ungated, and a null candidate is not "missing".
    double nan = std::numeric_limits<double>::quiet_NaN();
    auto inBase = obs::diffReportText(reportJson(nan), reportJson(100.0));
    EXPECT_FALSE(inBase.pass());
    ASSERT_EQ(inBase.errors.size(), 1u);
    EXPECT_EQ(inBase.errors[0],
              "metric is not a number in baseline: op.latency_us");
    auto inCand = obs::diffReportText(reportJson(100.0), reportJson(nan));
    EXPECT_FALSE(inCand.pass());
    ASSERT_EQ(inCand.errors.size(), 1u);
    EXPECT_EQ(inCand.errors[0],
              "metric is not a number in candidate: op.latency_us");
}

TEST(BenchDiff, MissingMetricIsStructuralFailure)
{
    obs::BenchReport cand("synthetic");
    cand.metric("op.throughput_mbps", 120.0, "Mb/s");
    cand.check("shape_holds", true);
    auto result = obs::diffReportText(reportJson(100.0), cand.toJson());
    EXPECT_FALSE(result.pass());
    ASSERT_FALSE(result.errors.empty());
    EXPECT_NE(result.errors[0].find("op.latency_us"), std::string::npos);
}

TEST(BenchDiff, FlippedCheckIsStructuralFailure)
{
    auto result = obs::diffReportText(reportJson(100.0),
                                      reportJson(100.0, false));
    EXPECT_FALSE(result.pass());
}

TEST(BenchDiff, NewCandidateMetricsAreNotedNotFailed)
{
    obs::BenchReport cand("synthetic");
    cand.metric("op.latency_us", 100.0, "us");
    cand.metric("op.throughput_mbps", 120.0, "Mb/s");
    cand.metric("op.p999_us", 180.0, "us"); // new in the candidate
    cand.check("shape_holds", true);
    auto result = obs::diffReportText(reportJson(100.0), cand.toJson());
    EXPECT_TRUE(result.pass()) << result.render();
    ASSERT_EQ(result.fresh.size(), 1u);
    EXPECT_EQ(result.fresh[0], "op.p999_us");
}

TEST(BenchDiff, UnparsableReportFails)
{
    auto result = obs::diffReportText("{not json", reportJson(100.0));
    EXPECT_FALSE(result.pass());
    ASSERT_FALSE(result.errors.empty());
    EXPECT_NE(result.errors[0].find("unparsable"), std::string::npos);
}

TEST(BenchDiff, BenchNameMismatchFails)
{
    obs::BenchReport other("different");
    other.metric("op.latency_us", 100.0, "us");
    auto result = obs::diffReportText(reportJson(100.0), other.toJson());
    EXPECT_FALSE(result.pass());
}

} // namespace
} // namespace remora
