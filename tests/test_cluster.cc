/**
 * @file
 * The cluster builder and the explorer-workload registry.
 *
 * Node and link names are part of the behaviour, not cosmetics: they
 * label traces, and Network::installFaults seeds every link's fault
 * stream from its name, so a rename would silently change every lossy
 * result. These tests pin them.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/workloads.h"
#include "rmem/notification.h"

namespace remora {
namespace {

using cluster::Cluster;

std::vector<std::string>
linkNames(const Cluster &c)
{
    std::vector<std::string> out;
    for (const auto &link : c.network.links()) {
        out.push_back(link->name());
    }
    return out;
}

TEST(Cluster, NodeIReceivesIdIPlusOneAndItsName)
{
    Cluster c({.names = {"alpha", "beta", "gamma"}, .switched = true});
    ASSERT_EQ(c.nodes.size(), 3u);
    ASSERT_EQ(c.engines.size(), 3u);
    EXPECT_EQ(c.network.hostCount(), 3u);
    const char *names[] = {"alpha", "beta", "gamma"};
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(c.nodes[i]->id(), i + 1);
        EXPECT_EQ(c.nodes[i]->name(), names[i]);
        EXPECT_EQ(c.nodes[i]->nic().name(), std::string(names[i]) + ".nic");
        EXPECT_EQ(&c.engines[i]->node(), c.nodes[i].get());
    }
}

TEST(Cluster, DirectWiringLinksTheTwoNicsBothWays)
{
    Cluster c({.names = {"nodeA", "nodeB"}});
    EXPECT_EQ(c.network.fabric(), nullptr);
    EXPECT_EQ(linkNames(c), (std::vector<std::string>{
                                "nodeA.nic->nodeB.nic",
                                "nodeB.nic->nodeA.nic"}));
}

TEST(Cluster, SwitchedWiringGivesEveryNicADownlinkAndAnUplink)
{
    Cluster c({.names = {"a", "b", "c"}, .switched = true});
    EXPECT_NE(c.network.fabric(), nullptr);
    EXPECT_EQ(linkNames(c), (std::vector<std::string>{
                                "sw->a.nic", "a.nic->sw", "sw->b.nic",
                                "b.nic->sw", "sw->c.nic", "c.nic->sw"}));
}

/** Server CPU finish time of one single-cell WRITE, from its start. */
sim::Duration
switchedWriteServerFinish(sim::Duration fabricLatency)
{
    Cluster c({.names = {"client", "server"},
               .switched = true,
               .fabricLatency = fabricLatency});
    rmem::ImportedSegment seg = c.exportOn(1, "seg");
    c.sim.run();
    sim::Time t0 = c.sim.now();
    auto w = c.engines[0]->write(seg, 0, std::vector<uint8_t>(40, 1));
    c.sim.run();
    EXPECT_TRUE(w.done() && w.result().ok());
    return c.nodes[1]->cpu().busyUntil() - t0;
}

TEST(Cluster, FabricLatencyDelaysASwitchedWriteByExactlyTheDelta)
{
    // One cell crosses the fabric once on its way to the server.
    EXPECT_EQ(switchedWriteServerFinish(sim::usec(2)), 34958);
    EXPECT_EQ(switchedWriteServerFinish(sim::usec(12)), 44958);
}

TEST(Cluster, CostsReachEveryEngine)
{
    rmem::CostModel costs;
    costs.cryptoWordCost = sim::usec(2);
    Cluster c({.names = {"a", "b", "c"}, .switched = true, .costs = costs});
    for (const auto &engine : c.engines) {
        EXPECT_EQ(engine->costs().cryptoWordCost, sim::usec(2));
        EXPECT_EQ(engine->wire().costs().cryptoWordCost, sim::usec(2));
    }
}

TEST(Cluster, RunsOnABorrowedSimulatorOrItsOwn)
{
    sim::Simulator borrowed;
    Cluster onBorrowed(borrowed, {.names = {"a", "b"}});
    EXPECT_EQ(&onBorrowed.sim, &borrowed);
    EXPECT_EQ(&onBorrowed.nodes[1]->simulator(), &borrowed);

    Cluster owning({.names = {"a", "b"}});
    EXPECT_NE(&owning.sim, &borrowed);
    EXPECT_EQ(&owning.nodes[0]->simulator(), &owning.sim);
}

TEST(Cluster, ExportOnReturnsAHandleWithTheGivenShape)
{
    Cluster c({.names = {"a", "b"}});
    rmem::ImportedSegment h =
        c.exportOn(1, "shaped", 8192, rmem::NotifyPolicy::kConditional);
    EXPECT_EQ(h.node, 2u);
    EXPECT_EQ(h.size, 8192u);
    const rmem::SegmentDescriptor *d = c.engines[1]->descriptor(h.descriptor);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->name, "shaped");
    EXPECT_EQ(d->policy, rmem::NotifyPolicy::kConditional);

    rmem::ImportedSegment plain = c.exportOn(0, "plain");
    EXPECT_EQ(plain.node, 1u);
    EXPECT_EQ(plain.size, 4096u);
}

/** Notifications a notified WRITE into a segment of @p policy posts. */
int
notificationsPosted(rmem::NotifyPolicy policy)
{
    Cluster c({.names = {"client", "server"}});
    rmem::ImportedSegment seg = c.exportOn(1, "seg", 4096, policy);
    auto w = c.engines[0]->write(seg, 0, {1, 2, 3}, /*notify=*/true);
    c.sim.run();
    EXPECT_TRUE(w.done() && w.result().ok());
    rmem::NotificationChannel *ch = c.engines[1]->channel(seg.descriptor);
    int posted = 0;
    rmem::Notification n;
    while (ch != nullptr && ch->tryNext(n)) {
        ++posted;
    }
    return posted;
}

TEST(Cluster, ExportOnNotifiesUnlessThePolicyIsNever)
{
    EXPECT_EQ(notificationsPosted(rmem::NotifyPolicy::kConditional), 1);
    EXPECT_EQ(notificationsPosted(rmem::NotifyPolicy::kAlways), 1);
    EXPECT_EQ(notificationsPosted(rmem::NotifyPolicy::kNever), 0);
}

TEST(Cluster, EnableReliabilityTurnsOnEveryWire)
{
    Cluster c({.names = {"a", "b", "c"}, .switched = true});
    c.enableReliability();
    for (const auto &engine : c.engines) {
        EXPECT_TRUE(engine->wire().reliable());
    }
}

TEST(ClusterDeathTest, DirectWiringNeedsExactlyTwoNodes)
{
    EXPECT_EXIT(Cluster({.names = {"a", "b", "c"}}),
                ::testing::ExitedWithCode(1),
                "wireDirect requires exactly two hosts");
}

// ----------------------------------------------------------------------
// Workload registry
// ----------------------------------------------------------------------

TEST(Workloads, FindsEveryRegisteredNameAndNothingElse)
{
    const char *names[] = {"rpc",       "notify",      "vector-notify",
                           "sync",      "dfs-token",   "lossy-write",
                           "lossy-rpc", "deadlock",    "lost-wakeup"};
    EXPECT_EQ(cluster::workloads().size(), std::size(names));
    for (const char *name : names) {
        const cluster::Workload *w = cluster::findWorkload(name);
        ASSERT_NE(w, nullptr) << name;
        EXPECT_STREQ(w->name, name);
        EXPECT_TRUE(static_cast<bool>(w->fn)) << name;
    }
    EXPECT_EQ(cluster::findWorkload("spin-lock"), nullptr);
    EXPECT_EQ(cluster::findWorkload(""), nullptr);
    EXPECT_TRUE(cluster::findWorkload("deadlock")->seeded);
    EXPECT_TRUE(cluster::findWorkload("lost-wakeup")->seeded);
    EXPECT_FALSE(cluster::findWorkload("lossy-rpc")->seeded);
}

TEST(Workloads, CleanWorkloadsComeBeforeSeededOnes)
{
    bool seenSeeded = false;
    for (const cluster::Workload &w : cluster::workloads()) {
        seenSeeded |= w.seeded;
        EXPECT_TRUE(w.seeded || !seenSeeded)
            << w.name << " is clean but listed after a seeded workload";
    }
    EXPECT_TRUE(seenSeeded);
}

} // namespace
} // namespace remora
