/**
 * @file
 * Unit tests for the memory substrate: physical memory, page tables,
 * address spaces, processes, and nodes.
 */
#include <gtest/gtest.h>

#include <vector>

#include "mem/address_space.h"
#include "mem/node.h"
#include "mem/page_table.h"
#include "mem/phys_mem.h"
#include "sim/simulator.h"

namespace remora::mem {
namespace {

// ----------------------------------------------------------------------
// PhysMem
// ----------------------------------------------------------------------

TEST(PhysMem, AllocatesZeroedFrames)
{
    PhysMem pm(8);
    Frame f = pm.allocFrame();
    auto data = pm.frameData(f);
    ASSERT_EQ(data.size(), kPageBytes);
    for (uint8_t b : data) {
        ASSERT_EQ(b, 0);
    }
    EXPECT_EQ(pm.framesInUse(), 1u);
}

TEST(PhysMem, FreedFramesAreReusedZeroed)
{
    PhysMem pm(4);
    Frame f = pm.allocFrame();
    pm.frameData(f)[0] = 0xff;
    pm.freeFrame(f);
    EXPECT_EQ(pm.framesInUse(), 0u);
    Frame g = pm.allocFrame();
    EXPECT_EQ(g, f);
    EXPECT_EQ(pm.frameData(g)[0], 0);
}

TEST(PhysMem, UnwrittenFrameReadsZerosWithoutStorage)
{
    PhysMem pm(8);
    Frame f = pm.allocFrame();
    auto data = pm.readData(f);
    ASSERT_EQ(data.size(), kPageBytes);
    for (uint8_t b : data) {
        ASSERT_EQ(b, 0);
    }
    EXPECT_EQ(pm.framesMaterialised(), 0u);
}

TEST(PhysMem, OneWriteMaterialisesOneFrame)
{
    PhysMem pm(8);
    AddressSpace space(pm);
    Vaddr va = space.allocRegion(4 * kPageBytes);
    EXPECT_EQ(pm.framesInUse(), 4u);
    EXPECT_EQ(pm.framesMaterialised(), 0u);

    uint8_t buf[16] = {};
    ASSERT_TRUE(space.read(va, buf).ok()); // reading materialises nothing
    EXPECT_EQ(pm.framesMaterialised(), 0u);

    ASSERT_TRUE(space.writeWord(va + kPageBytes + 8, 0xfeedf00du).ok());
    EXPECT_EQ(pm.framesMaterialised(), 1u);
    EXPECT_EQ(space.readWord(va + kPageBytes + 8).value(), 0xfeedf00du);
    EXPECT_EQ(space.readWord(va + kPageBytes + 12).value(), 0u);
    EXPECT_EQ(space.readWord(va + 8).value(), 0u);
}

TEST(PhysMem, FreedThenReallocatedFrameReadsZeros)
{
    PhysMem pm(4);
    Frame f = pm.allocFrame();
    pm.frameData(f)[100] = 0xab;
    EXPECT_EQ(pm.framesMaterialised(), 1u);
    pm.freeFrame(f);
    EXPECT_EQ(pm.framesMaterialised(), 0u);
    Frame g = pm.allocFrame();
    ASSERT_EQ(g, f);
    EXPECT_EQ(pm.readData(g)[100], 0);
    EXPECT_EQ(pm.framesMaterialised(), 0u);
}

TEST(PhysMem, WriteSpanningTwoFramesMaterialisesBoth)
{
    PhysMem pm(8);
    AddressSpace space(pm);
    Vaddr va = space.allocRegion(3 * kPageBytes);
    std::vector<uint8_t> data(100);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i + 1);
    }
    Vaddr at = va + kPageBytes - 40; // 40 bytes in frame 0, 60 in frame 1
    ASSERT_TRUE(space.write(at, data).ok());
    EXPECT_EQ(pm.framesMaterialised(), 2u);
    std::vector<uint8_t> back(140);
    ASSERT_TRUE(space.read(at - 20, back).ok());
    for (size_t i = 0; i < back.size(); ++i) {
        uint8_t want = (i >= 20 && i < 120) ? data[i - 20] : 0;
        ASSERT_EQ(back[i], want) << "byte " << i;
    }
}

// ----------------------------------------------------------------------
// PageTable
// ----------------------------------------------------------------------

TEST(PageTable, MapLookupUnmap)
{
    PageTable pt;
    EXPECT_EQ(pt.lookup(0x5000), nullptr);
    pt.map(0x5000, 7, true);
    Pte *pte = pt.lookup(0x5123); // anywhere within the page
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->frame, 7u);
    EXPECT_TRUE(pte->writable);
    EXPECT_FALSE(pte->pinned);
    EXPECT_EQ(pt.mappedPages(), 1u);
    pt.unmap(0x5000);
    EXPECT_EQ(pt.lookup(0x5000), nullptr);
    EXPECT_EQ(pt.mappedPages(), 0u);
}

TEST(PageTable, DistinguishesNeighboringPages)
{
    PageTable pt;
    pt.map(0x4000, 1, true);
    pt.map(0x5000, 2, false);
    EXPECT_EQ(pt.lookup(0x4fff)->frame, 1u);
    EXPECT_EQ(pt.lookup(0x5000)->frame, 2u);
    EXPECT_FALSE(pt.lookup(0x5000)->writable);
}

TEST(PageTable, SparseHighAddresses)
{
    PageTable pt;
    Vaddr high = (PageTable::kVaLimit - kPageBytes);
    pt.map(high, 3, true);
    ASSERT_NE(pt.lookup(high), nullptr);
    EXPECT_EQ(pt.lookup(high)->frame, 3u);
    EXPECT_EQ(pt.lookup(high - kPageBytes), nullptr);
    // Out-of-range lookups are nullptr, not UB.
    EXPECT_EQ(pt.lookup(PageTable::kVaLimit), nullptr);
}

// ----------------------------------------------------------------------
// AddressSpace
// ----------------------------------------------------------------------

TEST(AddressSpace, RegionAllocIsPageAlignedAndMapped)
{
    PhysMem pm;
    AddressSpace as(pm);
    Vaddr r = as.allocRegion(100);
    EXPECT_EQ(r % kPageBytes, 0u);
    EXPECT_TRUE(as.isMapped(r, 100));
    EXPECT_TRUE(as.isMapped(r, kPageBytes)); // rounded up
    EXPECT_FALSE(as.isMapped(r, kPageBytes + 1));
}

TEST(AddressSpace, ReadWriteAcrossPageBoundary)
{
    PhysMem pm;
    AddressSpace as(pm);
    Vaddr r = as.allocRegion(3 * kPageBytes);
    std::vector<uint8_t> data(kPageBytes + 100);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i * 13);
    }
    Vaddr start = r + kPageBytes - 50; // straddles two boundaries
    ASSERT_TRUE(as.write(start, data).ok());
    std::vector<uint8_t> out(data.size());
    ASSERT_TRUE(as.read(start, out).ok());
    EXPECT_EQ(out, data);
}

TEST(AddressSpace, UnmappedAccessFaults)
{
    PhysMem pm;
    AddressSpace as(pm);
    Vaddr r = as.allocRegion(kPageBytes);
    std::vector<uint8_t> buf(16);
    EXPECT_EQ(as.read(r + 2 * kPageBytes, buf).code(),
              util::ErrorCode::kOutOfBounds);
    EXPECT_EQ(as.write(r + 2 * kPageBytes, buf).code(),
              util::ErrorCode::kOutOfBounds);
    // A range that starts mapped but runs off the end also faults.
    std::vector<uint8_t> big(2 * kPageBytes);
    EXPECT_FALSE(as.write(r, big).ok());
}

TEST(AddressSpace, ReadOnlyRegionRejectsWrites)
{
    PhysMem pm;
    AddressSpace as(pm);
    Vaddr r = as.allocRegion(kPageBytes, /*writable=*/false);
    std::vector<uint8_t> buf(4, 1);
    EXPECT_EQ(as.write(r, buf).code(), util::ErrorCode::kAccessDenied);
    EXPECT_TRUE(as.read(r, buf).ok());
}

TEST(AddressSpace, WordAccessRequiresAlignment)
{
    PhysMem pm;
    AddressSpace as(pm);
    Vaddr r = as.allocRegion(kPageBytes);
    ASSERT_TRUE(as.writeWord(r + 8, 0x12345678).ok());
    EXPECT_EQ(as.readWord(r + 8).value(), 0x12345678u);
    EXPECT_FALSE(as.writeWord(r + 6, 1).ok());
    EXPECT_FALSE(as.readWord(r + 1).ok());
}

TEST(AddressSpace, WordIsLittleEndianInMemory)
{
    PhysMem pm;
    AddressSpace as(pm);
    Vaddr r = as.allocRegion(kPageBytes);
    ASSERT_TRUE(as.writeWord(r, 0x11223344).ok());
    std::vector<uint8_t> bytes(4);
    ASSERT_TRUE(as.read(r, bytes).ok());
    EXPECT_EQ(bytes[0], 0x44);
    EXPECT_EQ(bytes[3], 0x11);
}

TEST(AddressSpace, PinUnpinSetsPteBits)
{
    PhysMem pm;
    AddressSpace as(pm);
    Vaddr r = as.allocRegion(3 * kPageBytes);
    ASSERT_TRUE(as.pin(r + 100, 2 * kPageBytes).ok());
    EXPECT_TRUE(as.pageTable().lookup(r)->pinned);
    EXPECT_TRUE(as.pageTable().lookup(r + 2 * kPageBytes)->pinned);
    ASSERT_TRUE(as.unpin(r + 100, 2 * kPageBytes).ok());
    EXPECT_FALSE(as.pageTable().lookup(r)->pinned);
    // Pinning unmapped memory fails.
    EXPECT_FALSE(as.pin(r + 10 * kPageBytes, 8).ok());
}

TEST(AddressSpace, DestructorReturnsAllFrames)
{
    PhysMem pm;
    {
        AddressSpace as(pm);
        as.allocRegion(8 * kPageBytes);
        as.allocRegion(2 * kPageBytes);
        EXPECT_EQ(pm.framesInUse(), 10u);
    }
    EXPECT_EQ(pm.framesInUse(), 0u);
}

// ----------------------------------------------------------------------
// Node / Process
// ----------------------------------------------------------------------

TEST(Node, SpawnsProcessesWithUniquePids)
{
    sim::Simulator sim;
    Node node(sim, 1, "ws");
    Process &a = node.spawnProcess("a");
    Process &b = node.spawnProcess("b");
    EXPECT_NE(a.pid(), b.pid());
    EXPECT_EQ(node.findProcess(a.pid()), &a);
    EXPECT_EQ(node.findProcess(b.pid()), &b);
    EXPECT_EQ(node.findProcess(9999), nullptr);
}

TEST(Node, ProcessesShareNodeMemoryPool)
{
    sim::Simulator sim;
    Node node(sim, 1, "ws", NodeParams{.memFrames = 32});
    Process &a = node.spawnProcess("a");
    Process &b = node.spawnProcess("b");
    a.space().allocRegion(4 * kPageBytes);
    b.space().allocRegion(4 * kPageBytes);
    EXPECT_EQ(node.memory().framesInUse(), 8u);
}

TEST(Node, ProcessSpacesAreIsolated)
{
    sim::Simulator sim;
    Node node(sim, 1, "ws");
    Process &a = node.spawnProcess("a");
    Process &b = node.spawnProcess("b");
    Vaddr ra = a.space().allocRegion(kPageBytes);
    Vaddr rb = b.space().allocRegion(kPageBytes);
    // Same virtual addresses, different physical frames.
    EXPECT_EQ(ra, rb);
    ASSERT_TRUE(a.space().writeWord(ra, 0xAAAA).ok());
    ASSERT_TRUE(b.space().writeWord(rb, 0xBBBB).ok());
    EXPECT_EQ(a.space().readWord(ra).value(), 0xAAAAu);
    EXPECT_EQ(b.space().readWord(rb).value(), 0xBBBBu);
}

} // namespace
} // namespace remora::mem
