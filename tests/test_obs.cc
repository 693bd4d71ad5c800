/**
 * @file
 * Tests for the observability layer: the trace entry points' gating,
 * span semantics, detail fields and Chrome export, MetricRegistry dumps
 * and histogram JSON, an end-to-end READ trace check, and the pinned
 * recordings of the registry workloads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "cluster/workloads.h"
#include "cluster_fixture.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "util/hash.h"

namespace remora::test {
namespace {

/** The recorder is process-wide: reset it around every trace test. */
class TraceTest : public ::testing::Test
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

/** Advance the simulated clock to @p when. */
void
advanceTo(sim::Simulator &sim, sim::Time when)
{
    sim.scheduleAt(when, [] {});
    sim.run();
}

TEST_F(TraceTest, DisabledRecorderIsFreeAndSafe)
{
    auto &tr = obs::TraceRecorder::instance();
    EXPECT_FALSE(obs::TraceRecorder::on());
    obs::SpanId span =
        obs::beginSpan(0, "n", "c", "ignored", obs::kv("bytes", 40));
    EXPECT_EQ(span, obs::kNoSpan);
    obs::endSpan(span); // must be a no-op, not a crash
    obs::instant(0, "n", "c", "ignored");
    uint64_t op = obs::asyncBegin("n", "c", "ignored");
    EXPECT_EQ(op, 0u); // no id is drawn
    obs::asyncEnd(op, "n", "c", "ignored");
    EXPECT_EQ(tr.eventCount(), 0u);
}

TEST_F(TraceTest, SpanNestingAndSimTimeOrdering)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.enable(sim);

    obs::SpanId outer = obs::beginSpan(0, "node1", "rmem", "outer");
    advanceTo(sim, 100);
    obs::SpanId inner =
        obs::beginSpan(0, "node1", "rmem", "inner", obs::kv("k", "v"));
    advanceTo(sim, 250);
    obs::endSpan(inner);
    advanceTo(sim, 400);
    obs::endSpan(outer);
    tr.disable();

    ASSERT_EQ(tr.eventCount(), 2u);
    const obs::TraceEvent &o = tr.events()[0];
    const obs::TraceEvent &i = tr.events()[1];
    EXPECT_EQ(o.name, "outer");
    EXPECT_EQ(o.ts, 0);
    EXPECT_EQ(o.dur, 400);
    EXPECT_EQ(i.name, "inner");
    EXPECT_EQ(i.ts, 100);
    EXPECT_EQ(i.dur, 150);
    EXPECT_EQ(i.detail, "k=v");
    // The inner span is entirely contained in the outer one.
    EXPECT_GE(i.ts, o.ts);
    EXPECT_LE(i.ts + i.dur, o.ts + o.dur);
}

TEST_F(TraceTest, AsyncPairsAndInstants)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.enable(sim);

    uint64_t id = obs::asyncBegin("client", "rmem", "read");
    EXPECT_NE(id, 0u);
    advanceTo(sim, 50);
    obs::instant(0, "server", "net", "hop");
    obs::asyncEnd(0, "client", "rmem", "read"); // no op: ignored
    advanceTo(sim, 90);
    obs::asyncEnd(id, "client", "rmem", "read");
    tr.disable();

    ASSERT_EQ(tr.eventCount(), 3u);
    EXPECT_EQ(tr.events()[0].phase, obs::TracePhase::kAsyncBegin);
    EXPECT_EQ(tr.events()[1].phase, obs::TracePhase::kInstant);
    EXPECT_EQ(tr.events()[2].phase, obs::TracePhase::kAsyncEnd);
    EXPECT_EQ(tr.events()[0].id, tr.events()[2].id);

    std::string json = tr.toChromeJson();
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // Nodes become processes via metadata records.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("client"), std::string::npos);
    EXPECT_NE(json.find("server"), std::string::npos);
}

TEST_F(TraceTest, CapacityBoundsEventsAndCountsDrops)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.setCapacity(4);
    tr.enable(sim);
    for (int i = 0; i < 10; ++i) {
        obs::instant(0, "n", "c", "tick");
    }
    tr.disable();
    EXPECT_EQ(tr.eventCount(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    tr.clear();
    tr.setCapacity(1u << 20);
    EXPECT_EQ(tr.dropped(), 0u);
}

TEST_F(TraceTest, OpScopeStampsSpansAndInstants)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.enable(sim);

    uint64_t outer = tr.newAsyncId();
    uint64_t inner = 0;
    EXPECT_EQ(obs::TraceRecorder::currentOp(), 0u);
    {
        obs::OpScope scope(outer);
        EXPECT_EQ(obs::TraceRecorder::currentOp(), outer);
        obs::SpanId span = obs::beginSpan(0, "n", "c", "work");
        obs::instant(0, "n", "c", "point");
        {
            // A child op begun under the outer scope records it as its
            // parent; the nested scope then saves and restores like a
            // stack variable.
            inner = obs::asyncBegin("n", "c", "child");
            obs::OpScope nested(inner);
            EXPECT_EQ(obs::TraceRecorder::currentOp(), inner);
        }
        EXPECT_EQ(obs::TraceRecorder::currentOp(), outer);
        obs::endSpan(span);
    }
    EXPECT_EQ(obs::TraceRecorder::currentOp(), 0u);
    obs::instant(0, "n", "c", "outside");
    // An explicit op wins over the ambient one.
    {
        obs::OpScope scope(outer);
        obs::instant(inner, "n", "c", "explicit");
    }
    tr.disable();

    ASSERT_EQ(tr.eventCount(), 5u);
    EXPECT_EQ(tr.events()[0].op, outer); // span, stamped by the scope
    EXPECT_EQ(tr.events()[1].op, outer); // instant, likewise
    EXPECT_EQ(tr.events()[2].op, inner); // the child op itself...
    EXPECT_EQ(tr.events()[2].parent, outer); // ...with its parent link
    EXPECT_EQ(tr.events()[3].op, 0u); // outside any scope
    EXPECT_EQ(tr.events()[4].op, inner);
}

TEST_F(TraceTest, DetailJoinsTypedFieldsWithSpaces)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.enable(sim);
    std::string status = "remote failure";
    obs::instant(0, "n", "c", "mixed", "seq_data",
                 obs::kv("dst", uint16_t{7}),
                 obs::kv("bytes", ~uint64_t{0}), obs::kv("kind", -3),
                 obs::kv("state", status), status);
    obs::instant(0, "n", "c", "bare");
    tr.disable();

    ASSERT_EQ(tr.eventCount(), 2u);
    EXPECT_EQ(tr.events()[0].detail,
              "seq_data dst=7 bytes=18446744073709551615 kind=-3 "
              "state=remote failure remote failure");
    EXPECT_EQ(tr.events()[1].detail, "");
}

TEST(TraceNode, NodeOfStripsTheComponentSuffix)
{
    EXPECT_EQ(obs::nodeOf("nodeA.nic"), "nodeA");
    EXPECT_EQ(obs::nodeOf("client.cpu"), "client");
    EXPECT_EQ(obs::nodeOf("sw0"), "sw0");
    EXPECT_EQ(obs::nodeOf("a.b.c"), "a");
}

TEST_F(TraceTest, ChromeExportCarriesOpArgsAndSortIndices)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.enable(sim);

    uint64_t id = obs::asyncBegin("client", "rmem", "read");
    {
        obs::OpScope scope(id);
        obs::instant(0, "client", "net", "hop");
    }
    obs::asyncEnd(id, "client", "rmem", "read");
    tr.disable();

    std::string json = tr.toChromeJson();
    // Stable ordering metadata so Perfetto lays nodes/components out
    // deterministically across runs.
    EXPECT_NE(json.find("process_sort_index"), std::string::npos);
    EXPECT_NE(json.find("thread_sort_index"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    // The op id rides along as args so the DAG is reconstructible from
    // the export alone.
    EXPECT_NE(json.find("\"op\":" + std::to_string(id)), std::string::npos);
}

TEST(MetricRegistryTest, TextDumpAndNestedJson)
{
    sim::Counter writes;
    writes.inc(3);
    sim::Accumulator lat;
    lat.sample(1.0);
    lat.sample(3.0);
    sim::Histogram h(0.0, 1.0, 4);
    h.sample(0.5);
    h.sample(2.5);

    obs::MetricRegistry reg;
    reg.add("node1.rmem.writes_issued", writes);
    reg.add("node1.rmem.write.latency_us", lat);
    reg.add("node1.rmem.write.hist_us", h);
    reg.addGauge("node1.cpu.busy_us", [] { return 42.5; });
    EXPECT_EQ(reg.size(), 4u);

    std::string text = reg.dump();
    EXPECT_NE(text.find("node1.rmem.writes_issued"), std::string::npos);
    EXPECT_NE(text.find("node1.cpu.busy_us"), std::string::npos);

    std::string json = reg.dumpJson();
    // Dotted names become nested objects.
    EXPECT_NE(json.find("\"node1\":"), std::string::npos);
    EXPECT_NE(json.find("\"rmem\":"), std::string::npos);
    EXPECT_NE(json.find("\"writes_issued\":3"), std::string::npos);
    EXPECT_NE(json.find("\"mean\":2"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":"), std::string::npos);
    EXPECT_NE(json.find("42.5"), std::string::npos);
    // The dotted names themselves must NOT appear as JSON keys.
    EXPECT_EQ(json.find("\"node1.rmem"), std::string::npos);
}

TEST(MetricRegistryTest, RemovePrefixDropsOnlyThatSubtree)
{
    sim::Counter a, b;
    obs::MetricRegistry reg;
    reg.add("x.a", a);
    reg.add("x.b", b);
    reg.add("y.a", a);
    reg.removePrefix("x.");
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_NE(reg.dump().find("y.a"), std::string::npos);
}

// The StatRegistry suites keep the names of the flat stats registry's
// tests; obs::MetricRegistry replaced that registry and now carries the
// same sorted text dump and histogram JSON.

TEST(StatRegistry, DumpsSortedNameValueLines)
{
    obs::MetricRegistry reg;
    sim::Counter c;
    c.inc(3);
    sim::Accumulator a;
    a.sample(1.0);
    reg.add("zeta.counter", c);
    reg.add("alpha.accum", a);
    std::string dump = reg.dump();
    size_t alphaPos = dump.find("alpha.accum");
    size_t zetaPos = dump.find("zeta.counter 3");
    EXPECT_NE(alphaPos, std::string::npos);
    EXPECT_NE(zetaPos, std::string::npos);
    EXPECT_LT(alphaPos, zetaPos);
}

TEST(StatRegistryTest, HistogramJsonRoundTrip)
{
    sim::Histogram h(0.0, 10.0, 3);
    h.sample(5.0);
    h.sample(15.0);
    h.sample(15.0);
    h.sample(-1.0); // underflow
    h.sample(99.0); // overflow

    obs::MetricRegistry reg;
    reg.add("op.latency", h);
    std::string json = reg.dumpJson();
    // The dotted name nests: json["op"]["latency"].
    EXPECT_NE(json.find("\"op\":{\"latency\":{"), std::string::npos);
    EXPECT_NE(json.find("\"count\":5"), std::string::npos);
    EXPECT_NE(json.find("\"underflow\":1"), std::string::npos);
    EXPECT_NE(json.find("\"overflow\":1"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":"), std::string::npos);
    // Quantiles agree with the histogram's own interpolation.
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

/** Find the first event matching (phase, comp, name); -1 when absent. */
int
findEvent(const std::vector<obs::TraceEvent> &evs, obs::TracePhase phase,
          const std::string &comp, const std::string &name)
{
    for (size_t i = 0; i < evs.size(); ++i) {
        if (evs[i].phase == phase && evs[i].comp == comp &&
            evs[i].name == name) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

TEST_F(TraceTest, RemoteReadEmitsTheFullSpanSequence)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("srv");
    mem::Process &client = c.nodeA.spawnProcess("cli");

    mem::Vaddr base = server.space().allocRegion(4096);
    auto remote = c.engineB.exportSegment(server, base, 4096,
                                          rmem::Rights::kAll,
                                          rmem::NotifyPolicy::kNever, "r");
    ASSERT_TRUE(remote.ok());
    mem::Vaddr lbase = client.space().allocRegion(4096);
    auto local = c.engineA.exportSegment(client, lbase, 4096,
                                         rmem::Rights::kAll,
                                         rmem::NotifyPolicy::kNever, "l");
    ASSERT_TRUE(local.ok());
    c.sim.run();

    auto &tr = obs::TraceRecorder::instance();
    tr.enable(c.sim);
    auto task = c.engineA.read(remote.value(), 0,
                               local.value().descriptor, 0, 40);
    auto result = runToCompletion(c.sim, task);
    ASSERT_TRUE(result.status.ok());
    c.sim.run();
    tr.disable();

    const auto &evs = tr.events();
    // The full life of a READ, across three layers and both nodes:
    int readBegin =
        findEvent(evs, obs::TracePhase::kAsyncBegin, "rmem", "read");
    int txFrame = findEvent(evs, obs::TracePhase::kSpan, "net", "tx_frame");
    int rxIrq = findEvent(evs, obs::TracePhase::kInstant, "net", "rx_irq");
    int serve = findEvent(evs, obs::TracePhase::kSpan, "rmem", "serve_read");
    int deposit =
        findEvent(evs, obs::TracePhase::kSpan, "rmem", "deposit_read");
    int readEnd = findEvent(evs, obs::TracePhase::kAsyncEnd, "rmem", "read");

    ASSERT_GE(readBegin, 0);
    ASSERT_GE(txFrame, 0);
    ASSERT_GE(rxIrq, 0);
    ASSERT_GE(serve, 0);
    ASSERT_GE(deposit, 0);
    ASSERT_GE(readEnd, 0);

    // The request is issued on the client, served on the server, and
    // the result deposited back on the client.
    EXPECT_EQ(evs[static_cast<size_t>(readBegin)].node, "nodeA");
    EXPECT_EQ(evs[static_cast<size_t>(serve)].node, "nodeB");
    EXPECT_EQ(evs[static_cast<size_t>(deposit)].node, "nodeA");

    // Causal ordering in simulated time.
    sim::Time tBegin = evs[static_cast<size_t>(readBegin)].ts;
    sim::Time tServe = evs[static_cast<size_t>(serve)].ts;
    sim::Time tDeposit = evs[static_cast<size_t>(deposit)].ts;
    sim::Time tEnd = evs[static_cast<size_t>(readEnd)].ts;
    EXPECT_LE(tBegin, tServe);
    EXPECT_LE(tServe, tDeposit);
    EXPECT_LE(tDeposit, tEnd);

    // And the export names both nodes as processes.
    std::string json = tr.toChromeJson();
    EXPECT_NE(json.find("nodeA"), std::string::npos);
    EXPECT_NE(json.find("nodeB"), std::string::npos);
}

/**
 * FNV-1a over a recording: every event's phase, ts, dur, node, comp,
 * name and detail, with its id, op and parent renumbered by first
 * appearance so the async ids earlier recordings drew cannot move it.
 */
uint64_t
traceDigest(const std::vector<obs::TraceEvent> &evs)
{
    std::map<uint64_t, uint64_t> ids{{0, 0}};
    auto renumber = [&ids](uint64_t id) {
        return ids.try_emplace(id, ids.size()).first->second;
    };
    uint64_t h = util::fnv1a(std::string_view());
    for (const obs::TraceEvent &e : evs) {
        uint64_t id = renumber(e.id);
        uint64_t op = renumber(e.op);
        uint64_t parent = renumber(e.parent);
        std::string line = std::to_string(static_cast<int>(e.phase)) + ' ' +
                           std::to_string(e.ts) + ' ' +
                           std::to_string(e.dur) + ' ' +
                           std::to_string(id) + ' ' + std::to_string(op) +
                           ' ' + std::to_string(parent) + ' ' + e.node +
                           ' ' + e.comp + ' ' + e.name + ' ' + e.detail +
                           '\n';
        h = util::fnv1a(line, h);
    }
    return h;
}

TEST_F(TraceTest, RegistryWorkloadTracesArePinned)
{
    // Each clean registry workload's recording, pinned event for event.
    // These reach what neither quickstart's trace nor `remora prof`
    // records: switch hops, retransmits, reliable seq_data frames, RPC
    // retries and batched notification delivery.
    struct Pin
    {
        const char *name;
        size_t events;
        uint64_t digest;
    };
    const Pin pins[] = {
        {"rpc", 118, 0x2d1487314fbf6695ull},
        {"notify", 24, 0xaa38664e77e91ec1ull},
        {"vector-notify", 30, 0xe3a119f8b33dd574ull},
        {"sync", 67, 0x2c7fa8a90cc057adull},
        {"dfs-token", 195, 0xaf4f747c0e698a2full},
        {"lossy-write", 48, 0x6e4a1724bae3021aull},
        {"lossy-rpc", 50, 0xee7632aa35aad29full},
    };
    auto &tr = obs::TraceRecorder::instance();
    std::set<std::string> names;
    size_t checked = 0;
    for (const cluster::Workload &w : cluster::workloads()) {
        if (w.seeded) {
            continue;
        }
        const Pin *pin = std::find_if(
            std::begin(pins), std::end(pins),
            [&w](const Pin &p) { return std::string_view(p.name) == w.name; });
        ASSERT_NE(pin, std::end(pins)) << w.name;
        sim::Simulator sim;
        tr.clear();
        tr.enable(sim);
        w.fn(sim);
        tr.disable();
        uint64_t digest = traceDigest(tr.events());
        EXPECT_EQ(tr.eventCount(), pin->events) << w.name;
        EXPECT_EQ(digest, pin->digest)
            << w.name << " digest 0x" << std::hex << digest;
        for (const obs::TraceEvent &e : tr.events()) {
            names.insert(e.name);
            if (e.name == "tx_frame" && e.detail.rfind("seq_data ", 0) == 0) {
                names.insert("tx_frame seq_data");
            }
        }
        tr.clear();
        ++checked;
    }
    EXPECT_EQ(checked, std::size(pins));
    for (const char *name : {"hop", "retransmit", "notify_batch",
                             "notify_deliver", "retry", "tx_frame seq_data"}) {
        EXPECT_EQ(names.count(name), 1u) << name;
    }
}

} // namespace
} // namespace remora::test
