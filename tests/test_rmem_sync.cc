/**
 * @file
 * Tests for the synchronization library (§3.4) and the heartbeat
 * failure detector (§3.7), plus the §3.5 encryption cost hook.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "rmem/sync.h"

namespace remora {
namespace {

using test::runToCompletion;
using test::SwitchedCluster;
using test::TwoNodeCluster;

struct LockFixture
{
    TwoNodeCluster cluster;
    mem::Process &home;
    mem::Process &worker;
    rmem::ImportedSegment shared;
    rmem::SegmentId scratch = 0;
    mem::Vaddr sharedBase = 0;

    LockFixture()
        : home(cluster.nodeB.spawnProcess("home")),
          worker(cluster.nodeA.spawnProcess("worker"))
    {
        sharedBase = home.space().allocRegion(4096);
        auto h = cluster.engineB.exportSegment(home, sharedBase, 4096,
                                               rmem::Rights::kAll,
                                               rmem::NotifyPolicy::kNever,
                                               "lockpage");
        EXPECT_TRUE(h.ok());
        shared = h.value();
        mem::Vaddr lbase = worker.space().allocRegion(4096);
        auto l = cluster.engineA.exportSegment(worker, lbase, 4096,
                                               rmem::Rights::kAll,
                                               rmem::NotifyPolicy::kNever,
                                               "scratch");
        EXPECT_TRUE(l.ok());
        scratch = l.value().descriptor;
        cluster.sim.run();
    }
};

TEST(SpinLock, AcquireReleaseCycle)
{
    LockFixture f;
    rmem::SpinLock lock(f.cluster.engineA, f.shared, 0, f.scratch, 0, 0xA1);
    auto a = lock.acquire();
    ASSERT_TRUE(runToCompletion(f.cluster.sim, a).ok());
    // The lock word holds our tag at the home node.
    f.cluster.sim.run();
    EXPECT_EQ(f.home.space().readWord(f.sharedBase).value(), 0xA1u);
    auto r = lock.release();
    ASSERT_TRUE(runToCompletion(f.cluster.sim, r).ok());
    f.cluster.sim.run();
    EXPECT_EQ(f.home.space().readWord(f.sharedBase).value(), 0u);
    EXPECT_EQ(lock.contentionCount(), 0u);
}

TEST(SpinLock, AcquireTimesOutUnderDeadlock)
{
    LockFixture f;
    rmem::SpinLock holder(f.cluster.engineA, f.shared, 0, f.scratch, 0,
                          0xA1);
    auto t1 = holder.acquire();
    ASSERT_TRUE(runToCompletion(f.cluster.sim, t1).ok());

    rmem::SpinLockParams p;
    p.acquireTimeout = sim::msec(2);
    rmem::SpinLock blocked(f.cluster.engineA, f.shared, 0, f.scratch, 4,
                           0xB2, p);
    auto t2 = blocked.acquire();
    EXPECT_EQ(runToCompletion(f.cluster.sim, t2).code(),
              util::ErrorCode::kTimeout);
    EXPECT_GT(blocked.contentionCount(), 0u);
}

TEST(SpinLock, MutualExclusionAcrossNodes)
{
    SwitchedCluster c(3);
    rmem::ImportedSegment shared = c.exportOn(0, "page");

    struct Worker
    {
        std::unique_ptr<rmem::SpinLock> lock;
        rmem::SegmentId scratch;
        sim::Task<void> task{};
    };
    std::vector<Worker> workers(2);
    int inCritical = 0;
    int maxInCritical = 0;
    int totalEntries = 0;

    for (size_t i = 0; i < 2; ++i) {
        workers[i].scratch = c.exportOn(i + 1, "s").descriptor;
        workers[i].lock = std::make_unique<rmem::SpinLock>(
            *c.engines[i + 1], shared, 0, workers[i].scratch, 0,
            static_cast<uint32_t>(0x100 + i));
    }
    for (size_t i = 0; i < 2; ++i) {
        workers[i].task = [](rmem::SpinLock *lock, sim::Simulator *sim,
                             int *in, int *maxIn,
                             int *entries) -> sim::Task<void> {
            for (int k = 0; k < 15; ++k) {
                auto s = co_await lock->acquire();
                REMORA_ASSERT(s.ok());
                ++*in;
                ++*entries;
                *maxIn = std::max(*maxIn, *in);
                co_await sim::delay(*sim, sim::usec(200)); // critical work
                --*in;
                auto r = co_await lock->release();
                REMORA_ASSERT(r.ok());
            }
        }(workers[i].lock.get(), &c.sim, &inCritical, &maxInCritical,
                         &totalEntries);
    }
    c.sim.run();
    for (auto &w : workers) {
        EXPECT_TRUE(w.task.done());
        w.task.result();
    }
    EXPECT_EQ(totalEntries, 30);
    EXPECT_EQ(maxInCritical, 1) << "mutual exclusion violated";
}

// ----------------------------------------------------------------------
// Heartbeat failure detector
// ----------------------------------------------------------------------

TEST(Heartbeat, HealthyPeerNeverDeclaredFailed)
{
    TwoNodeCluster c;
    mem::Process &pub = c.nodeB.spawnProcess("publisher");
    mem::Process &mon = c.nodeA.spawnProcess("monitor");
    rmem::HeartbeatPublisher publisher(c.engineB, pub);
    bool failed = false;
    rmem::HeartbeatMonitor monitor(c.engineA, mon, publisher.handle(),
                                   [&](net::NodeId) { failed = true; });
    publisher.start();
    monitor.start();
    c.sim.run(sim::msec(500));
    EXPECT_FALSE(failed);
    EXPECT_FALSE(monitor.peerFailed());
    EXPECT_GT(publisher.beats(), 10u);
    EXPECT_GT(monitor.probes(), 5u);
    publisher.stop();
    monitor.stop();
    c.sim.run();
}

TEST(Heartbeat, StoppedPublisherIsDetected)
{
    TwoNodeCluster c;
    mem::Process &pub = c.nodeB.spawnProcess("publisher");
    mem::Process &mon = c.nodeA.spawnProcess("monitor");
    rmem::HeartbeatPublisher publisher(c.engineB, pub);
    net::NodeId failedNode = 0;
    rmem::HeartbeatMonitor monitor(c.engineA, mon, publisher.handle(),
                                   [&](net::NodeId n) { failedNode = n; });
    publisher.start();
    monitor.start();
    c.sim.run(sim::msec(100));
    EXPECT_FALSE(monitor.peerFailed());

    // The publisher process dies (stops bumping) but the node's kernel
    // still answers reads: the counter stops advancing.
    publisher.stop();
    c.sim.run(sim::msec(400));
    EXPECT_TRUE(monitor.peerFailed());
    EXPECT_EQ(failedNode, 2);
}

TEST(Heartbeat, SilentKernelIsDetected)
{
    TwoNodeCluster c;
    mem::Process &pub = c.nodeB.spawnProcess("publisher");
    mem::Process &mon = c.nodeA.spawnProcess("monitor");
    rmem::HeartbeatPublisher publisher(c.engineB, pub);
    bool failed = false;
    rmem::HeartbeatMonitor monitor(c.engineA, mon, publisher.handle(),
                                   [&](net::NodeId) { failed = true; });
    publisher.start();
    monitor.start();
    c.sim.run(sim::msec(100));

    // Whole-node crash: the kernel stops answering entirely.
    publisher.stop();
    c.engineB.wire().setRmemHandler([](net::NodeId, rmem::Message &&) {});
    c.sim.run(sim::msec(400));
    EXPECT_TRUE(failed);
}

// ----------------------------------------------------------------------
// Encryption cost hook (§3.5)
// ----------------------------------------------------------------------

TEST(Security, CryptoCostSlowsTheWire)
{
    auto measureReadUs = [](const rmem::CostModel &costs) {
        TwoNodeCluster c(costs);
        rmem::ImportedSegment seg = c.exportOn(1, "s");
        rmem::ImportedSegment local = c.exportOn(0, "l");
        c.sim.run();
        sim::Time t0 = c.sim.now();
        auto t = c.engineA.read(seg, 0, local.descriptor, 0, 40);
        runToCompletion(c.sim, t);
        return sim::toUsec(c.sim.now() - t0);
    };

    rmem::CostModel plain;
    rmem::CostModel hardware;
    hardware.cryptoWordCost = sim::usec(0.05); // AN1-style link crypto
    rmem::CostModel software;
    software.cryptoWordCost = sim::usec(2.0); // software DES, 25 MHz CPU

    double plainUs = measureReadUs(plain);
    double hwUs = measureReadUs(hardware);
    double swUs = measureReadUs(software);

    // Hardware crypto costs little; software crypto wrecks the latency
    // (the paper's §3.5 prediction).
    EXPECT_LT(hwUs, plainUs * 1.15);
    EXPECT_GT(swUs, plainUs * 2.0);
}

} // namespace
} // namespace remora
