/**
 * @file
 * Wire-layer unit tests: framing decisions, malformed-message
 * handling and descriptor-table internals.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "rmem/descriptor.h"
#include "rmem/engine.h"

namespace remora {
namespace {

using test::runToCompletion;
using test::TwoNodeCluster;

// ----------------------------------------------------------------------
// Framing decisions
// ----------------------------------------------------------------------

TEST(Wire, SmallMessagesTravelAsOneCell)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    auto seg = c.engineB.exportSegment(server, base, 4096,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "s");
    ASSERT_TRUE(seg.ok());
    c.sim.run();

    uint64_t cells0 = c.nodeA.nic().cellsTx();
    auto w = c.engineA.write(seg.value(), 0, std::vector<uint8_t>(40, 1));
    runToCompletion(c.sim, w);
    c.sim.run();
    // 40 bytes + 8-byte header: exactly one cell (the paper's claim).
    EXPECT_EQ(c.nodeA.nic().cellsTx() - cells0, 1u);

    cells0 = c.nodeA.nic().cellsTx();
    auto w2 = c.engineA.write(seg.value(), 0, std::vector<uint8_t>(41, 1));
    runToCompletion(c.sim, w2);
    c.sim.run();
    // 41 bytes spill into an AAL5 frame: 10B header + 41B + trailer.
    EXPECT_EQ(c.nodeA.nic().cellsTx() - cells0, 2u);
}

TEST(Wire, BlockWriteCellCountMatchesAal5)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(16384);
    auto seg = c.engineB.exportSegment(server, base, 16384,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "s");
    ASSERT_TRUE(seg.ok());
    c.sim.run();

    uint64_t cells0 = c.nodeA.nic().cellsTx();
    auto w = c.engineA.write(seg.value(), 0, std::vector<uint8_t>(4096, 1));
    runToCompletion(c.sim, w);
    c.sim.run();
    // Block-write header is 10 bytes; frame = 4106 bytes of payload.
    EXPECT_EQ(c.nodeA.nic().cellsTx() - cells0, net::aal5CellCount(4106));
}

/** A WRITE whose encoding spans many AAL5 cells. */
rmem::Message
multiCellWrite()
{
    rmem::WriteReq w;
    w.descriptor = 1;
    w.data.assign(4096, 0x5a);
    return w;
}

TEST(Wire, FrameIsFreedOnceWhenItsLastCellRuns)
{
    TwoNodeCluster c;
    c.sim.run();
    size_t live = rmem::Wire::txFramesLive();
    uint64_t cells0 = c.nodeA.nic().cellsTx();
    sim::Future<void> accepted = c.engineA.wire().send(
        c.nodeB.id(), multiCellWrite(), sim::CpuCategory::kOther);
    EXPECT_EQ(rmem::Wire::txFramesLive(), live + 1);

    // Until the last cell's PIO completes, the frame stays alive.
    while (c.nodeA.nic().cellsTx() - cells0 + 1 < net::aal5CellCount(4106)) {
        ASSERT_TRUE(c.sim.step());
        ASSERT_EQ(rmem::Wire::txFramesLive(), live + 1);
    }
    EXPECT_FALSE(accepted.operator co_await().await_ready());
    c.sim.run();
    EXPECT_EQ(c.nodeA.nic().cellsTx() - cells0, net::aal5CellCount(4106));
    EXPECT_TRUE(accepted.operator co_await().await_ready());
    EXPECT_EQ(rmem::Wire::txFramesLive(), live);
}

TEST(Wire, FrameIsFreedOnceWhenTheSimulatorDiesWithCellsPending)
{
    size_t live = rmem::Wire::txFramesLive();
    {
        TwoNodeCluster c;
        c.sim.run();
        uint64_t cells0 = c.nodeA.nic().cellsTx();
        (void)c.engineA.wire().send(c.nodeB.id(), multiCellWrite(),
                                    sim::CpuCategory::kOther);
        // Some cells out, most still queued on the CPU behind them.
        while (c.nodeA.nic().cellsTx() - cells0 < 2) {
            ASSERT_TRUE(c.sim.step());
        }
        EXPECT_EQ(rmem::Wire::txFramesLive(), live + 1);
    }
    // The pending completions died with the simulator; the one that
    // owned the frame freed it (ASan reports a second free, LSan none).
    EXPECT_EQ(rmem::Wire::txFramesLive(), live);
}

TEST(Wire, MalformedRawCellCountedAndDropped)
{
    TwoNodeCluster c;
    c.sim.run();
    // Inject a raw cell whose payload decodes to an unknown type.
    net::Cell junk;
    junk.vpi = 2;
    junk.vci = 1;
    junk.pti = 0x2 | 0x1; // raw + last
    junk.payload.fill(0x0f);
    c.nodeA.nic().pushTx(junk);
    c.sim.run();
    EXPECT_EQ(c.engineB.wire().decodeErrors(), 1u);
    EXPECT_EQ(c.engineB.wire().messagesReceived(), 0u);
}

// ----------------------------------------------------------------------
// DescriptorTable internals
// ----------------------------------------------------------------------

TEST(DescriptorTable, GenerationSurvivesSlotReuse)
{
    sim::Simulator sim;
    sim::CpuResource cpu(sim, "cpu");
    rmem::CostModel costs;
    rmem::DescriptorTable table(cpu, costs);

    auto first = table.allocate(1, 0x1000, 64, rmem::Rights::kAll,
                                rmem::NotifyPolicy::kNever, "a");
    ASSERT_TRUE(first.ok());
    rmem::Generation g1 = table.get(first.value())->generation;
    ASSERT_TRUE(table.release(first.value()).ok());
    auto second = table.allocate(1, 0x2000, 64, rmem::Rights::kAll,
                                 rmem::NotifyPolicy::kNever, "b");
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value(), first.value()); // first-fit reuse
    EXPECT_NE(table.get(second.value())->generation, g1);
}

TEST(DescriptorTable, ValidateChecksEverySurface)
{
    sim::Simulator sim;
    sim::CpuResource cpu(sim, "cpu");
    rmem::CostModel costs;
    rmem::DescriptorTable table(cpu, costs);
    auto id = table.allocate(1, 0x1000, 100, rmem::Rights::kRead,
                             rmem::NotifyPolicy::kNever, "seg");
    ASSERT_TRUE(id.ok());
    rmem::Generation gen = table.get(id.value())->generation;

    // Happy path.
    EXPECT_TRUE(table.validate(id.value(), gen, 0, 100,
                               rmem::Rights::kRead).ok());
    // Each rejection surface, individually.
    EXPECT_EQ(table.validate(99, gen, 0, 4, rmem::Rights::kRead)
                  .status().code(),
              util::ErrorCode::kBadDescriptor);
    EXPECT_EQ(table.validate(id.value(), gen + 1, 0, 4,
                             rmem::Rights::kRead).status().code(),
              util::ErrorCode::kStaleGeneration);
    EXPECT_EQ(table.validate(id.value(), gen, 0, 4,
                             rmem::Rights::kWrite).status().code(),
              util::ErrorCode::kAccessDenied);
    EXPECT_EQ(table.validate(id.value(), gen, 90, 20,
                             rmem::Rights::kRead).status().code(),
              util::ErrorCode::kOutOfBounds);
    // Offset+count overflow must not wrap past the bound.
    EXPECT_EQ(table.validate(id.value(), gen, 0xffffffffffffffffull, 2,
                             rmem::Rights::kRead).status().code(),
              util::ErrorCode::kOutOfBounds);
}

TEST(DescriptorTable, LiveCountTracksAllocations)
{
    sim::Simulator sim;
    sim::CpuResource cpu(sim, "cpu");
    rmem::CostModel costs;
    rmem::DescriptorTable table(cpu, costs);
    EXPECT_EQ(table.liveCount(), 0u);
    auto a = table.allocate(1, 0, 16, rmem::Rights::kAll,
                            rmem::NotifyPolicy::kNever, "a");
    auto b = table.allocate(1, 0, 16, rmem::Rights::kAll,
                            rmem::NotifyPolicy::kNever, "b");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(table.liveCount(), 2u);
    ASSERT_TRUE(table.release(a.value()).ok());
    EXPECT_EQ(table.liveCount(), 1u);
    EXPECT_FALSE(table.release(a.value()).ok()); // double release
}

} // namespace
} // namespace remora
