/**
 * @file
 * The dynamic half of the correctness-tooling layer: prove that a full
 * cluster workload — name service, DFS over DX, conventional RPC, raw
 * remote-memory ops — replays bit-identically by running it twice and
 * comparing its schedule and semantic sim::DeterminismDigest values. remora-lint statically bans
 * the nondeterminism sources that would break this; this test is the
 * runtime witness that the ban (and the event ordering underneath)
 * actually holds.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster_fixture.h"
#include "dfs/backend.h"
#include "dfs/file_store.h"
#include "dfs/server.h"
#include "names/clerk.h"
#include "net/fault.h"
#include "net/host_interface.h"
#include "net/link.h"
#include "rpc/hybrid1.h"
#include "rpc/transport.h"
#include "sim/determinism.h"
#include "sim/random.h"

namespace remora {
namespace {

using test::runToCompletion;

/** Digests, results and activity count of one finished workload run. */
struct RunResult
{
    uint64_t schedule = 0;
    uint64_t semantic = 0;
    uint64_t records = 0;
    uint64_t events = 0;
    uint64_t decisions = 0;
    /** The clock at quiescence. */
    sim::Time end = 0;
    /** The workload's own results: op completion times and the like. */
    std::vector<int64_t> results;
};

/**
 * One full cluster workload: two nodes, name-service bootstrap, DFS
 * traffic through the DX backend, an RPC echo stream, and raw rmem
 * write/read traffic with sizes drawn from a seeded sim::Random.
 *
 * @param extraWrites Extra tail writes, to show distinct workloads
 *        produce distinct digests.
 * @param perturbSeed Schedule-perturbation seed; nullopt leaves the
 *        simulator untouched (vs. an explicit setPerturbation(0)).
 * @param policy Schedule policy to install, if any.
 */
RunResult
runClusterWorkload(int extraWrites,
                   std::optional<uint64_t> perturbSeed = std::nullopt,
                   sim::SchedulePolicy *policy = nullptr)
{
    test::TwoNodeCluster c;
    if (perturbSeed) {
        c.sim.setPerturbation(*perturbSeed);
    }
    if (policy != nullptr) {
        c.sim.setPolicy(policy);
    }
    names::NameClerk namesA(c.engineA), namesB(c.engineB);
    namesA.addPeer(2);
    namesB.addPeer(1);

    dfs::FileStore store;
    auto file = store.createFile(store.root(), "replay.dat", 16384);
    EXPECT_TRUE(file.ok());
    dfs::FileServer server(c.engineA, store);
    server.warmCaches();
    server.start();

    rpc::RpcTransport clientRpc(c.engineB.wire());
    rpc::RpcTransport serverRpc(c.engineA.wire());
    serverRpc.registerProc(
        7, [](net::NodeId,
              std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });

    // Publish a segment by name from the server, import it from the
    // client, and push rmem + RPC + DFS traffic over the shared wire.
    mem::Process &pub = c.nodeA.spawnProcess("publisher");
    mem::Vaddr base = pub.space().allocRegion(8192);
    auto exp = namesA.exportByName(&pub, base, 8192, rmem::Rights::kAll,
                                   rmem::NotifyPolicy::kConditional,
                                   "replay.seg");
    auto handle = runToCompletion(c.sim, exp);
    EXPECT_TRUE(handle.ok());

    mem::Process &clerkProc = c.nodeB.spawnProcess("clerk");
    dfs::DxBackend dx(c.engineB, clerkProc, server.areaHandles());

    RunResult r;
    auto driver = [](test::TwoNodeCluster *cl, names::NameClerk *names,
                     dfs::DxBackend *backend, rpc::RpcTransport *rpc,
                     dfs::FileHandle fh, int extra,
                     std::vector<int64_t> *done) -> sim::Task<void> {
        sim::Random rng(0x5eed);
        auto imported = co_await names->import("replay.seg", 1);
        REMORA_ASSERT(imported.ok());

        for (int i = 0; i < 8; ++i) {
            uint32_t len = 64 + rng.uniformInt(512);
            std::vector<uint8_t> data(len,
                                      static_cast<uint8_t>(rng.nextU32()));
            auto ws = co_await cl->engineB.write(imported.value(),
                                                 4 * i, data, i % 2 == 0);
            REMORA_ASSERT(ws.ok());

            auto echo = co_await rpc->call(1, 7, std::move(data));
            REMORA_ASSERT(echo.ok());

            auto rd = co_await backend->read(fh, 512 * i, 1024);
            REMORA_ASSERT(rd.ok());
            done->push_back(cl->sim.now());
        }
        std::vector<uint8_t> tail(256, 0x7e);
        auto w = co_await backend->write(fh, 0, tail);
        REMORA_ASSERT(w.ok());
        for (int i = 0; i < extra; ++i) {
            auto ew = co_await backend->write(fh, 1024 * (i + 1), tail);
            REMORA_ASSERT(ew.ok());
        }
        co_return;
    };
    auto t = driver(&c, &namesB, &dx, &clientRpc, file.value(), extraWrites,
                    &r.results);
    runToCompletion(c.sim, t);
    c.sim.run();

    r.end = c.sim.now();
    r.schedule = c.sim.scheduleDigest().value();
    r.semantic = c.sim.semanticDigest().value();
    r.records = c.sim.scheduleDigest().records() +
                c.sim.semanticDigest().records();
    r.events = c.sim.eventsProcessed();
    return r;
}

TEST(Determinism, ClusterWorkloadReplaysBitIdentically)
{
    RunResult first = runClusterWorkload(0);
    RunResult second = runClusterWorkload(0);
    // The strong property: not merely the same op results, but the same
    // digests over every scheduled/executed event and every component
    // milestone, i.e. bit-identical replay.
    EXPECT_EQ(first.schedule, second.schedule);
    EXPECT_EQ(first.semantic, second.semantic);
    EXPECT_EQ(first.records, second.records);
    EXPECT_EQ(first.events, second.events);
    // The workload must be substantial enough to mean something.
    EXPECT_GT(first.events, 1000u);
    EXPECT_GT(first.records, 2000u);
}

TEST(Determinism, DistinctWorkloadsProduceDistinctDigests)
{
    // Sanity that the semantic digest has discriminating power: one
    // extra write at the tail must perturb it.
    EXPECT_NE(runClusterWorkload(0).semantic, runClusterWorkload(2).semantic);
}

TEST(Determinism, DigestFoldsScheduleExecuteAndCancel)
{
    sim::Simulator a;
    sim::Simulator b;
    EXPECT_EQ(a.scheduleDigest().value(), b.scheduleDigest().value());

    auto id1 = a.schedule(5, [] {});
    (void)b.schedule(5, [] {});
    // Same (when, id) schedule record on both sides.
    EXPECT_EQ(a.scheduleDigest().value(), b.scheduleDigest().value());

    // A cancellation is activity: it must leave a mark even though the
    // event never executes.
    a.cancel(id1);
    EXPECT_NE(a.scheduleDigest().value(), b.scheduleDigest().value());

    // Cancelling an id that is already gone folds nothing.
    uint64_t afterCancel = a.scheduleDigest().value();
    a.cancel(id1);
    EXPECT_EQ(afterCancel, a.scheduleDigest().value());

    a.run();
    b.run();
    EXPECT_NE(a.scheduleDigest().value(), b.scheduleDigest().value());
    // Queue churn never reaches the semantic digest.
    EXPECT_EQ(a.semanticDigest().value(), sim::DeterminismDigest::kOffset);
}

TEST(Determinism, NoteDigestCoversComponentMilestones)
{
    sim::Simulator s;
    uint64_t before = s.semanticDigest().value();
    s.noteDigest("test.kind", uint64_t{42});
    EXPECT_NE(before, s.semanticDigest().value());
    // Milestones never reach the schedule digest.
    EXPECT_EQ(s.scheduleDigest().value(), sim::DeterminismDigest::kOffset);

    // Kind and actor both discriminate.
    sim::Simulator s2;
    s2.noteDigest("test.kind", uint64_t{43});
    EXPECT_NE(s.semanticDigest().value(), s2.semanticDigest().value());

    sim::Simulator s3;
    s3.noteDigest("test.kino", uint64_t{42});
    EXPECT_NE(s.semanticDigest().value(), s3.semanticDigest().value());

    // The string-actor overload discriminates on content too.
    sim::Simulator s4, s5;
    s4.noteDigest("names.import", std::string_view("alpha"));
    s5.noteDigest("names.import", std::string_view("beta"));
    EXPECT_NE(s4.semanticDigest().value(), s5.semanticDigest().value());
}

// ----------------------------------------------------------------------
// Schedule perturbation (the race detector's schedule driver)
// ----------------------------------------------------------------------

TEST(Determinism, PerturbationSeedZeroMatchesUnperturbedBitForBit)
{
    // setPerturbation(0) must be indistinguishable from never calling
    // it: same digest, same record count, same event count. This is
    // what lets check.sh fold seed 0 into the regular gate.
    RunResult untouched = runClusterWorkload(0);
    RunResult zeroSeed = runClusterWorkload(0, uint64_t{0});
    EXPECT_EQ(untouched.schedule, zeroSeed.schedule);
    EXPECT_EQ(untouched.semantic, zeroSeed.semantic);
    EXPECT_EQ(untouched.records, zeroSeed.records);
    EXPECT_EQ(untouched.events, zeroSeed.events);
}

TEST(Determinism, PerturbedRunReplaysBitIdentically)
{
    // Perturbation trades *which* legal schedule runs, not determinism:
    // the same seed must replay bit-for-bit.
    RunResult first = runClusterWorkload(0, uint64_t{3});
    RunResult second = runClusterWorkload(0, uint64_t{3});
    EXPECT_EQ(first.schedule, second.schedule);
    EXPECT_EQ(first.semantic, second.semantic);
    EXPECT_EQ(first.records, second.records);
    EXPECT_EQ(first.events, second.events);
}

TEST(Determinism, DistinctSeedsProduceDistinctDigests)
{
    // The seed is folded into the schedule digest (and reorders
    // same-timestamp events), so perturbed runs are distinguishable
    // from the baseline.
    EXPECT_NE(runClusterWorkload(0).schedule,
              runClusterWorkload(0, uint64_t{3}).schedule);
}

TEST(Determinism, PerturbationReordersSameTimestampEvents)
{
    // Directly at the simulator: events scheduled for the same instant
    // run in insertion order by default; some seed must permute them
    // (each seed keys an order-preserving hash of the event id, so a
    // handful of seeds is enough to see a swap).
    auto orderUnder = [](uint64_t seed) {
        sim::Simulator s;
        if (seed != 0) {
            s.setPerturbation(seed);
        }
        std::string order;
        for (char tag : {'a', 'b', 'c', 'd', 'e', 'f'}) {
            s.schedule(10, [&order, tag] { order.push_back(tag); });
        }
        s.run();
        return order;
    };
    EXPECT_EQ(orderUnder(0), "abcdef");
    bool permuted = false;
    for (uint64_t seed = 1; seed <= 8 && !permuted; ++seed) {
        std::string o = orderUnder(seed);
        // Every event still runs exactly once...
        std::string sorted = o;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, "abcdef");
        // ...possibly in a different order.
        permuted = o != "abcdef";
    }
    EXPECT_TRUE(permuted) << "no seed in 1..8 reordered the tie";
}

TEST(Determinism, FnvReferenceValues)
{
    // FNV-1a 64 known-answer: empty input is the offset basis, and
    // "a" folds to the published constant.
    sim::DeterminismDigest d;
    EXPECT_EQ(d.value(), 14695981039346656037ull);
    d.mix("a");
    EXPECT_EQ(d.value(), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(d.records(), 1u);
}

// ----------------------------------------------------------------------
// Deferred events against eager events
//
// By default the simulator defers the link credit returns and the RX
// interrupts that would change nothing (sim::Simulator::reserve), and
// elides the spin-wait polls that would find their word unchanged
// (sim::PollChain). An
// insertion-order RecordReplayPolicy (empty prefix, no fallback) runs
// the smallest seq at every tie, the plain insertion order, but as a
// policy it makes every owner schedule every event at once. So each
// workload below runs both ways on fresh simulators, and the two runs
// must agree on everything but the event count. A change that moved
// both runs alike would pass that comparison, so the deferred run must
// also land on the semantic digest and end clock pinned for it.
// ----------------------------------------------------------------------

/**
 * Run @p workload deferred and eager; require equal behaviour, and the
 * deferred run's semantic digest and end clock to equal @p semantic and
 * @p end.
 */
template <typename Workload>
void
expectDeferralChangesNothing(Workload workload, uint64_t semantic,
                             sim::Time end)
{
    RunResult deferred = workload(nullptr);
    EXPECT_EQ(deferred.semantic, semantic);
    EXPECT_EQ(deferred.end, end);
    sim::RecordReplayPolicy insertionOrder;
    RunResult eager = workload(&insertionOrder);
    EXPECT_EQ(deferred.semantic, eager.semantic);
    EXPECT_EQ(deferred.end, eager.end);
    EXPECT_EQ(deferred.results, eager.results);
    EXPECT_FALSE(deferred.results.empty());
    EXPECT_LT(deferred.events, eager.events);
}

/** Fill the digest, clock, event and decision fields of @p r from @p s. */
void
finish(const sim::Simulator &s, RunResult &r)
{
    r.schedule = s.scheduleDigest().value();
    r.semantic = s.semanticDigest().value();
    r.events = s.eventsProcessed();
    r.decisions = s.decisionPoints();
    r.end = s.now();
}

TEST(DeferredEvents, TwoNodeClusterWorkloadMatchesEagerRun)
{
    expectDeferralChangesNothing(
        [](sim::SchedulePolicy *policy) {
            return runClusterWorkload(0, std::nullopt, policy);
        },
        0x7cf2c021d783c4cdull, 19133673);
}

/**
 * Sixteen DX clients on a switch write and read 8 KB blocks at once:
 * the server's downlink runs out of credits while the server drains
 * its RX FIFO one 9 us PIO charge per cell.
 */
RunResult
runSwitchedDx(sim::SchedulePolicy *policy)
{
    constexpr size_t kClients = 16;
    cluster::ClusterSpec spec{.names = {"server"}, .switched = true};
    for (size_t i = 0; i < kClients; ++i) {
        spec.names.push_back("client" + std::to_string(i + 2));
    }
    cluster::Cluster c(spec);
    if (policy != nullptr) {
        c.sim.setPolicy(policy);
    }
    dfs::FileStore store;
    auto file = store.createFile(store.root(), "hot", 16384);
    EXPECT_TRUE(file.ok());
    rpc::Hybrid1Params hp;
    hp.slots = kClients + 1;
    dfs::FileServer server(*c.engines[0], store, dfs::CacheGeometry{},
                           dfs::ServiceTimes{}, hp);
    server.warmCaches();
    server.start();
    c.sim.run();

    RunResult r;
    std::vector<std::unique_ptr<rpc::Hybrid1Client>> hy;
    std::vector<std::unique_ptr<dfs::DxBackend>> dx;
    std::vector<sim::Task<void>> loops;
    auto client = [](sim::Simulator *s, dfs::DxBackend *backend,
                     dfs::FileHandle fh, uint8_t fill,
                     std::vector<int64_t> *done) -> sim::Task<void> {
        for (int round = 0; round < 2; ++round) {
            auto w = co_await backend->write(
                fh, 0, std::vector<uint8_t>(8192, fill));
            done->push_back(w.ok());
            done->push_back(s->now());
            auto rd = co_await backend->read(fh, 0, 8192);
            done->push_back(rd.ok() ? rd.value().front() : -1);
            done->push_back(s->now());
        }
    };
    for (size_t i = 0; i < kClients; ++i) {
        mem::Process &proc =
            c.nodes[i + 1]->spawnProcess("clerk" + std::to_string(i));
        hy.push_back(std::make_unique<rpc::Hybrid1Client>(
            *c.engines[i + 1], proc, server.hybridHandle(),
            server.allocClientSlot(), hp));
        dx.push_back(std::make_unique<dfs::DxBackend>(
            *c.engines[i + 1], proc, server.areaHandles(),
            dfs::CacheGeometry{}, hy.back().get()));
        loops.push_back(client(&c.sim, dx.back().get(), file.value(),
                               static_cast<uint8_t>(i), &r.results));
    }
    c.sim.run();
    for (const auto &loop : loops) {
        EXPECT_TRUE(loop.done());
    }
    finish(c.sim, r);
    return r;
}

TEST(DeferredEvents, SwitchedDxClusterMatchesEagerRun)
{
    expectDeferralChangesNothing(runSwitchedDx, 0xe9829a71c8d491b9ull,
                                 118946516);
}

/**
 * A direct link with two credits into a NIC whose driver marks itself
 * draining as the Wire does. It drains the first cells in 1.5 us each,
 * under the 2 us interrupt latency, so a drain can end before an
 * interrupt raised during it, and the rest in 10 us each, so credits
 * bind. The sender pushes bursts of five cells.
 */
RunResult
runSlowReceiver(sim::SchedulePolicy *policy)
{
    sim::Simulator s;
    if (policy != nullptr) {
        s.setPolicy(policy);
    }
    net::LinkParams lp;
    lp.credits = 2;
    net::Link link(s, lp, "tx->rx");
    net::HostInterface nic(s, "rx.nic");
    link.connect(nic);

    RunResult r;
    bool draining = false;
    std::function<void()> drainOne = [&] {
        if (auto cell = nic.popRx()) {
            r.results.push_back(cell->vci);
            r.results.push_back(s.now());
            s.schedule(cell->vci < 15 ? sim::usec(1.5) : sim::usec(10),
                       drainOne);
        } else {
            draining = false;
            nic.setDraining(false);
        }
    };
    nic.setRxInterrupt([&] {
        // Like the Wire, the driver ignores interrupts while it drains.
        if (!draining) {
            r.results.push_back(-1);
            r.results.push_back(s.now());
            draining = true;
            nic.setDraining(true);
            drainOne();
        }
    });
    for (int burst = 0; burst < 6; ++burst) {
        s.schedule(sim::usec(37) * burst, [&link, burst] {
            for (int i = 0; i < 5; ++i) {
                net::Cell c;
                c.vci = static_cast<uint16_t>(burst * 5 + i);
                link.send(c);
            }
        });
    }
    s.run();
    finish(s, r);
    return r;
}

TEST(DeferredEvents, CreditBoundSlowReceiverMatchesEagerRun)
{
    expectDeferralChangesNothing(runSlowReceiver, 0x135871f57437135bull,
                                 267029);
}

/** Notified WRITEs over the reliable wire, 5% of cells dropped. */
RunResult
runReliableLossy(sim::SchedulePolicy *policy)
{
    test::TwoNodeCluster c;
    if (policy != nullptr) {
        c.sim.setPolicy(policy);
    }
    c.enableReliability();
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(8192);
    auto seg = c.engineB.exportSegment(server, base, 8192,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kConditional, "s");
    EXPECT_TRUE(seg.ok());
    c.sim.run();
    net::FaultPlan plan;
    plan.seed = 5;
    plan.dropRate = 0.05;
    c.network.installFaults(plan);

    RunResult r;
    for (int i = 0; i < 16; ++i) {
        std::vector<uint8_t> data(40 + 24u * static_cast<unsigned>(i),
                                  static_cast<uint8_t>(i));
        auto w = c.engineA.write(seg.value(), static_cast<uint32_t>(i) * 512,
                                 data, /*notify=*/true);
        runToCompletion(c.sim, w);
        r.results.push_back(c.sim.now());
    }
    c.sim.run();
    std::vector<uint8_t> mem(8192);
    EXPECT_TRUE(server.space().read(base, mem).ok());
    r.results.insert(r.results.end(), mem.begin(), mem.end());
    r.results.push_back(static_cast<int64_t>(c.engineA.wire().retransmits()));
    EXPECT_GT(c.network.totalFaultDrops(), 0u);
    finish(c.sim, r);
    return r;
}

TEST(DeferredEvents, ReliableWireUnderDropsMatchesEagerRun)
{
    expectDeferralChangesNothing(runReliableLossy, 0x64683b945bf1151bull,
                                 2284038);
}

/**
 * Raw-cell and AAL5 messages on a link that drops cells, with no
 * reliable wire to resend them. The last cell is dropped, so in the
 * eager run its credit return is the last event of all: the deferred
 * run must still end with the clock there.
 */
RunResult
runUnreliableLossy(sim::SchedulePolicy *policy)
{
    test::TwoNodeCluster c;
    if (policy != nullptr) {
        c.sim.setPolicy(policy);
    }
    RunResult r;
    c.engineB.wire().setRmemHandler([&](net::NodeId, rmem::Message &&msg) {
        r.results.push_back(c.sim.now());
        r.results.push_back(static_cast<int64_t>(
            std::get<rmem::WriteReq>(msg).data.size()));
    });
    net::FaultPlan plan;
    plan.seed = 12; // drops the last message's last cell
    plan.dropRate = 0.2;
    c.network.installFaults(plan);
    for (int i = 0; i < 24; ++i) {
        rmem::WriteReq w;
        w.descriptor = 1;
        w.data.assign(i % 3 == 0 ? 200 : 16, static_cast<uint8_t>(i));
        c.sim.schedule(sim::usec(50) * i, [&c, w] {
            (void)c.engineA.wire().send(2, w, sim::CpuCategory::kDataReply);
        });
    }
    c.sim.run();
    EXPECT_GT(c.network.totalFaultDrops(), 0u);
    finish(c.sim, r);
    return r;
}

TEST(DeferredEvents, UnreliableLossyLinkEndsOnTheEagerClock)
{
    expectDeferralChangesNothing(runUnreliableLossy, 0x80aa24538329844cull,
                                 1154400);
}

/**
 * The `remora faults 5` workload: 24 notified WRITEs of 16 to 495
 * bytes, then eight READs back, over the reliable wire with 5% of cells
 * dropped both ways. Its CPU waits often complete with another event
 * due at the same instant, so a resume run in place out of turn shows.
 */
RunResult
runFaultsProbe(sim::SchedulePolicy *policy)
{
    test::TwoNodeCluster c;
    if (policy != nullptr) {
        c.sim.setPolicy(policy);
    }
    c.enableReliability();
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(32768);
    auto seg = c.engineB.exportSegment(server, base, 32768,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kConditional,
                                       "probe.mem");
    EXPECT_TRUE(seg.ok());
    rmem::SegmentId scratch = c.exportOn(0, "probe.scratch").descriptor;
    c.sim.run();
    net::FaultPlan plan;
    plan.seed = 5;
    plan.dropRate = 0.05;
    c.network.installFaults(plan);

    RunResult r;
    std::vector<sim::Task<util::Status>> writes;
    for (int i = 0; i < 24; ++i) {
        std::vector<uint8_t> data(16 + static_cast<size_t>(i * 53) % 480);
        for (size_t j = 0; j < data.size(); ++j) {
            data[j] = static_cast<uint8_t>(static_cast<size_t>(i) * 17 + j);
        }
        writes.push_back(c.engineA.write(
            seg.value(), static_cast<uint32_t>(i) * 1024, data, true));
    }
    c.sim.run();
    std::vector<sim::Task<rmem::ReadOutcome>> reads;
    for (int i = 0; i < 24; i += 3) {
        reads.push_back(c.engineA.read(seg.value(),
                                       static_cast<uint32_t>(i) * 1024,
                                       scratch, 0, 16));
    }
    c.sim.run();
    for (auto &w : writes) {
        r.results.push_back(w.done() && w.result().ok());
    }
    for (auto &rd : reads) {
        EXPECT_TRUE(rd.done());
        const rmem::ReadOutcome &out = rd.result();
        r.results.push_back(out.status.ok());
        r.results.insert(r.results.end(), out.data.begin(), out.data.end());
    }
    r.results.push_back(static_cast<int64_t>(c.engineA.wire().retransmits() +
                                             c.engineB.wire().retransmits()));
    EXPECT_GT(c.network.totalFaultDrops(), 0u);
    finish(c.sim, r);
    return r;
}

TEST(DeferredEvents, FaultsProbeWorkloadMatchesEagerRun)
{
    expectDeferralChangesNothing(runFaultsProbe, 0x415925a19828faf2ull,
                                 6505227);
}

/**
 * Sixteen Hybrid-1 clients on a switch, as perfbench's dfs_hy but for
 * three rounds of five calls each: every client's calls queue behind the
 * others' at the one server, so most of each spin-wait is elided polls
 * at the 64 us cap.
 */
RunResult
runSwitchedHy(sim::SchedulePolicy *policy)
{
    constexpr size_t kClients = 16;
    cluster::ClusterSpec spec{.names = {"server"}, .switched = true};
    for (size_t i = 0; i < kClients; ++i) {
        spec.names.push_back("client" + std::to_string(i + 2));
    }
    cluster::Cluster c(spec);
    if (policy != nullptr) {
        c.sim.setPolicy(policy);
    }
    dfs::FileStore store;
    auto file = store.createFile(store.root(), "hot", 16384);
    EXPECT_TRUE(file.ok());
    rpc::Hybrid1Params hp;
    hp.slots = kClients + 1;
    hp.pollInterval = sim::usec(4);
    dfs::FileServer server(*c.engines[0], store, dfs::CacheGeometry{},
                           dfs::ServiceTimes{}, hp);
    server.warmCaches();
    server.start();
    c.sim.run();

    RunResult r;
    std::vector<std::unique_ptr<rpc::Hybrid1Client>> hy;
    std::vector<std::unique_ptr<dfs::HyBackend>> backends;
    std::vector<sim::Task<void>> loops;
    auto client = [](sim::Simulator *s, dfs::HyBackend *backend,
                     dfs::FileHandle root, dfs::FileHandle fh, uint8_t fill,
                     std::vector<int64_t> *done) -> sim::Task<void> {
        for (int round = 0; round < 3; ++round) {
            auto a = co_await backend->getattr(fh);
            done->push_back(a.ok() ? s->now() : -1);
            auto rd = co_await backend->read(fh, 0, 8192);
            done->push_back(rd.ok() ? s->now() : -1);
            auto w = co_await backend->write(
                fh, 0, std::vector<uint8_t>(4096, fill));
            done->push_back(w.ok() ? s->now() : -1);
            auto l = co_await backend->lookup(root, "hot");
            done->push_back(l.ok() ? s->now() : -1);
            auto n = co_await backend->null();
            done->push_back(n.ok() ? s->now() : -1);
        }
    };
    for (size_t i = 0; i < kClients; ++i) {
        mem::Process &proc =
            c.nodes[i + 1]->spawnProcess("clerk" + std::to_string(i));
        hy.push_back(std::make_unique<rpc::Hybrid1Client>(
            *c.engines[i + 1], proc, server.hybridHandle(),
            server.allocClientSlot(), hp));
        backends.push_back(std::make_unique<dfs::HyBackend>(*hy.back()));
        loops.push_back(client(&c.sim, backends.back().get(), store.root(),
                               file.value(), static_cast<uint8_t>(i),
                               &r.results));
    }
    c.sim.run();
    for (const auto &loop : loops) {
        EXPECT_TRUE(loop.done());
    }
    finish(c.sim, r);
    return r;
}

/**
 * DX clients of two file servers on a switch. client5 reads attributes
 * from "server" behind a downlink that drops every cell: its reads get
 * no reply, so their 100 ms timeouts fire from the head of their timer
 * lane. Behind it, client3 reads four blocks at a time from "server"
 * while client4 reads attributes from "mirror": client4's replies
 * overtake client3's, so some of its timeouts are cancelled behind the
 * lane's front and wait there dead.
 */
RunResult
runDxReadTimeout(sim::SchedulePolicy *policy)
{
    cluster::ClusterSpec spec{
        .names = {"server", "mirror", "client3", "client4", "client5"},
        .switched = true};
    cluster::Cluster c(spec);
    if (policy != nullptr) {
        c.sim.setPolicy(policy);
    }
    dfs::FileStore stores[2];
    std::vector<std::unique_ptr<dfs::FileServer>> servers;
    dfs::FileHandle files[2];
    for (size_t i = 0; i < 2; ++i) {
        auto file = stores[i].createFile(stores[i].root(), "hot", 32768);
        EXPECT_TRUE(file.ok());
        files[i] = file.value();
        servers.push_back(std::make_unique<dfs::FileServer>(
            *c.engines[i], stores[i], dfs::CacheGeometry{},
            dfs::ServiceTimes{}, rpc::Hybrid1Params{}));
        servers.back()->warmCaches();
        servers.back()->start();
    }
    c.sim.run();
    net::FaultPlan dropAll;
    dropAll.dropRate = 1.0;
    std::string deadLink = "sw->" + c.nodes[4]->nic().name();
    net::FaultInjector deadDownlink(c.sim, dropAll, deadLink);
    for (const auto &link : c.network.links()) {
        if (link->name() == deadLink) {
            link->setFaultInjector(&deadDownlink);
        }
    }

    RunResult r;
    std::vector<std::unique_ptr<dfs::DxBackend>> dx;
    std::vector<sim::Task<void>> loops;
    auto client = [](sim::Simulator *s, dfs::DxBackend *backend,
                     dfs::FileHandle fh, int ops, uint32_t readBytes,
                     std::vector<int64_t> *done) -> sim::Task<void> {
        for (int op = 0; op < ops; ++op) {
            util::Status st;
            if (readBytes == 0) {
                st = (co_await backend->getattr(fh)).status();
            } else {
                st = (co_await backend->read(fh, 0, readBytes)).status();
            }
            done->push_back(static_cast<int64_t>(st.code()));
            done->push_back(s->now());
        }
    };
    // (node, server, ops, read bytes): the dead client starts first, so
    // its first timeout heads the lane.
    struct Client
    {
        size_t node;
        size_t server;
        int ops;
        uint32_t readBytes;
    };
    for (Client cl : {Client{4, 0, 2, 0}, Client{2, 0, 4, 32768},
                      Client{3, 1, 16, 0}}) {
        mem::Process &proc = c.nodes[cl.node]->spawnProcess("clerk");
        dx.push_back(std::make_unique<dfs::DxBackend>(
            *c.engines[cl.node], proc, servers[cl.server]->areaHandles()));
        loops.push_back(client(&c.sim, dx.back().get(), files[cl.server],
                               cl.ops, cl.readBytes, &r.results));
    }
    size_t maxDead = 0;
    while (c.sim.step()) {
        maxDead = std::max(maxDead, c.sim.pendingEvents() -
                                        c.sim.livePendingEvents());
    }
    c.sim.run();
    EXPECT_EQ(maxDead > 0, policy == nullptr);
    for (const auto &loop : loops) {
        EXPECT_TRUE(loop.done());
    }
    for (const auto &engine : c.engines) {
        r.results.push_back(
            static_cast<int64_t>(engine->stats().timeouts.value()));
    }
    EXPECT_EQ(c.engines[4]->stats().timeouts.value(), 2u);
    EXPECT_EQ(c.engines[2]->stats().timeouts.value() +
                  c.engines[3]->stats().timeouts.value(),
              0u);
    finish(c.sim, r);
    return r;
}

TEST(DeferredEvents, DxReadTimeoutsFireFromTheirTimerLane)
{
    // Timer lanes keep every key, record and count: the run is pinned
    // to the schedule the heap alone gave before timers had lanes.
    expectDeferralChangesNothing(runDxReadTimeout, 0x6ac8beb0514d0647ull,
                                 200713000);
    RunResult r = runDxReadTimeout(nullptr);
    EXPECT_EQ(r.schedule, 0x2f18688fa5acc35bull);
    EXPECT_EQ(r.events, 14212u);
    EXPECT_EQ(r.decisions, 15u);
}

TEST(DeferredEvents, SwitchedHyClusterKeepsTheEagerPollsKeys)
{
    // The elided run keeps the eager poll loop's schedule: its digests,
    // end clock, event count and decision points are pinned from it.
    expectDeferralChangesNothing(runSwitchedHy, 0xb6815b0d0b44f962ull, 212034680);
    RunResult r = runSwitchedHy(nullptr);
    EXPECT_EQ(r.schedule, 0x0b9b0bfd2d54ef94ull);
    EXPECT_EQ(r.events, 126982u);
    EXPECT_EQ(r.decisions, 45845u);
}

} // namespace
} // namespace remora
