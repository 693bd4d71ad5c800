/**
 * @file
 * Control-transfer mechanism tests: notification channels, signal
 * handlers, reader-side read notification, chunked transfers, and
 * engine bookkeeping.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cluster_fixture.h"
#include "rmem/engine.h"
#include "util/hash.h"

namespace remora {
namespace {

using test::makeSegment;
using test::runToCompletion;
using test::TwoNodeCluster;

TEST(Notification, SignalHandlerStyleDelivery)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto seg = makeSegment(c.engineB, server, 4096);
    auto *ch = c.engineB.channel(seg.descriptor);
    ASSERT_NE(ch, nullptr);

    std::vector<rmem::Notification> delivered;
    ch->setSignalHandler([&](const rmem::Notification &n) {
        delivered.push_back(n);
    });

    auto w1 = c.engineA.write(seg, 16, {1, 2}, true);
    runToCompletion(c.sim, w1);
    auto w2 = c.engineA.write(seg, 32, {3}, true);
    runToCompletion(c.sim, w2);
    c.sim.run();

    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered[0].offset, 16u);
    EXPECT_EQ(delivered[1].offset, 32u);
    // Signal-style delivery bypasses the queue.
    EXPECT_FALSE(ch->readable());
    EXPECT_EQ(ch->delivered(), 2u);
}

TEST(Notification, SignalDeliveryChargesControlTransfer)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto seg = makeSegment(c.engineB, server, 4096);
    c.engineB.channel(seg.descriptor)
        ->setSignalHandler([](const rmem::Notification &) {});
    c.sim.run();
    c.nodeB.cpu().resetAccounting();

    auto w = c.engineA.write(seg, 0, {1}, true);
    runToCompletion(c.sim, w);
    c.sim.run();
    rmem::CostModel costs;
    EXPECT_GE(c.nodeB.cpu().busyIn(sim::CpuCategory::kControlTransfer),
              costs.notifyDispatchCost);
}

TEST(Notification, QueuedDeliveriesPreserveOrder)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto seg = makeSegment(c.engineB, server, 4096);
    auto *ch = c.engineB.channel(seg.descriptor);

    for (uint8_t i = 0; i < 4; ++i) {
        auto w = c.engineA.write(seg, i * 64u, {i}, true);
        runToCompletion(c.sim, w);
    }
    c.sim.run();

    rmem::Notification n;
    for (uint32_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(ch->tryNext(n));
        EXPECT_EQ(n.offset, i * 64u);
    }
    EXPECT_FALSE(ch->tryNext(n));
}

TEST(Notification, ReaderSideNotifyOnReadCompletion)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto remote = makeSegment(c.engineB, server, 4096, rmem::Rights::kAll,
                              rmem::NotifyPolicy::kNever);
    auto local = makeSegment(c.engineA, client, 4096);
    auto *ch = c.engineA.channel(local.descriptor);

    auto waiter = ch->next();
    auto rd = c.engineA.read(remote, 0, local.descriptor, 0, 32,
                             /*notify=*/true);
    auto out = runToCompletion(c.sim, rd);
    ASSERT_TRUE(out.status.ok());
    c.sim.run();
    ASSERT_TRUE(waiter.done());
    rmem::Notification n = waiter.result();
    EXPECT_EQ(n.kind, rmem::NotifyKind::kRead);
    EXPECT_EQ(n.count, 32u);
    // The reader-side notification counts like any other; doorbells
    // count vectored replies only.
    EXPECT_EQ(c.engineA.stats().notificationsPosted.value(), 1u);
    EXPECT_EQ(c.engineA.stats().vectorDoorbells.value(), 0u);
}

TEST(Notification, BlockedReaderReportsItsParkSite)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto seg = makeSegment(c.engineB, server, 4096);
    auto *ch = c.engineB.channel(seg.descriptor);

    auto waiter = ch->next();
    c.sim.run();
    EXPECT_EQ(c.sim.blockedTaskCount(), 1u);
    const std::string hang =
        "HANG (blocked-task) at t=" + std::to_string(c.sim.now()) +
        " — coroutine parked forever (no wakeup pending)\n"
        "  nodeB:seg notify fd blocking read\n";
    auto reports = c.sim.waitGraph().quiescenceReports(c.sim.now());
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].format(), hang);

    // A relabel while the reader waits (to a shorter label, so the new
    // text lands in the old one's storage) keeps the site it parked at.
    ch->setHangLabel("x");
    reports = c.sim.waitGraph().quiescenceReports(c.sim.now());
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].format(), hang);

    auto w = c.engineA.write(seg, 0, {1}, true);
    runToCompletion(c.sim, w);
    c.sim.run();
    EXPECT_TRUE(waiter.done());
    EXPECT_EQ(c.sim.blockedTaskCount(), 0u);
}

TEST(NotificationDeathTest, RevokedChannelKeepsItsParkedReaderSite)
{
    // Revoking the segment destroys its channel under the parked
    // reader, whose frame can then never resume. The child checks the
    // report and leaves through _Exit, so the exit-time leak check does
    // not flag that frame.
    EXPECT_EXIT(
        {
            TwoNodeCluster c;
            mem::Process &server = c.nodeB.spawnProcess("server");
            auto seg = makeSegment(c.engineB, server, 4096);
            auto waiter = c.engineB.channel(seg.descriptor)->next();
            c.sim.run();
            bool revoked = c.engineB.revokeSegment(seg.descriptor).ok();
            auto reports = c.sim.waitGraph().quiescenceReports(c.sim.now());
            bool named = reports.size() == 1 &&
                         reports[0].parties ==
                             std::vector<std::string>{
                                 "nodeB:seg notify fd blocking read"};
            std::_Exit(revoked && named ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(RmemChunking, LargeReadSpansMultipleFrames)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Process &client = c.nodeA.spawnProcess("client");
    uint32_t size = 150000;
    mem::Vaddr base = server.space().allocRegion(size);
    std::vector<uint8_t> content(size);
    for (size_t i = 0; i < content.size(); ++i) {
        content[i] = static_cast<uint8_t>(util::mix64(i) >> 24);
    }
    ASSERT_TRUE(server.space().write(base, content).ok());
    auto remote = c.engineB.exportSegment(server, base, size,
                                          rmem::Rights::kAll,
                                          rmem::NotifyPolicy::kNever, "big");
    ASSERT_TRUE(remote.ok());

    mem::Vaddr lbase = client.space().allocRegion(size);
    auto local = c.engineA.exportSegment(client, lbase, size,
                                         rmem::Rights::kAll,
                                         rmem::NotifyPolicy::kNever, "dst");
    ASSERT_TRUE(local.ok());

    auto rd = c.engineA.read(remote.value(), 0, local.value().descriptor, 0,
                             size, /*notify=*/true);
    auto out = runToCompletion(c.sim, rd);
    ASSERT_TRUE(out.status.ok());
    EXPECT_EQ(out.data, content);
    // Deposited locally as well.
    std::vector<uint8_t> deposited(size);
    ASSERT_TRUE(client.space().read(lbase, deposited).ok());
    EXPECT_EQ(deposited, content);
    // Three frames (60000 + 60000 + 30000 bytes), one notification: the
    // last chunk's.
    c.sim.run();
    auto *ch = c.engineA.channel(local.value().descriptor);
    rmem::Notification n;
    ASSERT_TRUE(ch->tryNext(n));
    EXPECT_EQ(n.kind, rmem::NotifyKind::kRead);
    EXPECT_EQ(n.count, 30000u);
    EXPECT_FALSE(ch->tryNext(n));
    EXPECT_EQ(c.engineA.stats().notificationsPosted.value(), 1u);
}

TEST(RmemBookkeeping, StatsCountOperations)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto remote = makeSegment(c.engineB, server, 4096);
    auto local = makeSegment(c.engineA, client, 4096);

    auto w = c.engineA.write(remote, 0, {1});
    runToCompletion(c.sim, w);
    auto r = c.engineA.read(remote, 0, local.descriptor, 0, 8);
    runToCompletion(c.sim, r);
    auto cas = c.engineA.cas(remote, 0, 0, 1, local.descriptor, 0);
    runToCompletion(c.sim, cas);
    c.sim.run();

    EXPECT_EQ(c.engineA.stats().writesIssued.value(), 1u);
    EXPECT_EQ(c.engineA.stats().readsIssued.value(), 1u);
    EXPECT_EQ(c.engineA.stats().casIssued.value(), 1u);
    EXPECT_EQ(c.engineB.stats().requestsServed.value(), 3u);
    EXPECT_EQ(c.engineB.stats().naksSent.value(), 0u);
}

TEST(RmemBookkeeping, WireCountsMessagesAndBytes)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto remote = makeSegment(c.engineB, server, 4096);
    uint64_t sentBefore = c.engineA.wire().messagesSent();
    auto w = c.engineA.write(remote, 0, std::vector<uint8_t>(24, 1));
    runToCompletion(c.sim, w);
    c.sim.run();
    EXPECT_EQ(c.engineA.wire().messagesSent(), sentBefore + 1);
    EXPECT_EQ(c.engineB.wire().messagesReceived(), 1u);
    EXPECT_GE(c.engineA.wire().bytesSent(), 24u + 8u);
}

TEST(RmemBookkeeping, DescriptorExhaustionReported)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    util::Status last;
    for (int i = 0; i < 257; ++i) {
        auto h = c.engineB.exportSegment(server, base, 4096,
                                         rmem::Rights::kAll,
                                         rmem::NotifyPolicy::kNever, "s");
        last = h.status();
    }
    EXPECT_EQ(last.code(), util::ErrorCode::kResource);
}

TEST(RmemBookkeeping, ExportPinsAndRevokeUnpins)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(2 * mem::kPageBytes);
    auto h = c.engineB.exportSegment(server, base, 2 * mem::kPageBytes,
                                     rmem::Rights::kAll,
                                     rmem::NotifyPolicy::kNever, "pinned");
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(server.space().pageTable().lookup(base)->pinned);
    EXPECT_TRUE(server.space()
                    .pageTable()
                    .lookup(base + mem::kPageBytes)
                    ->pinned);
    ASSERT_TRUE(c.engineB.revokeSegment(h.value().descriptor).ok());
    EXPECT_FALSE(server.space().pageTable().lookup(base)->pinned);
}

} // namespace
} // namespace remora
