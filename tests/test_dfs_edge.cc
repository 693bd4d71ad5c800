/**
 * @file
 * File-service edge cases: unaligned and boundary-crossing reads,
 * readdir byte budgets, zero-length transfers, EOF behaviour, and
 * cache-area consistency after mixed-path writes.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "dfs/backend.h"
#include "dfs/server.h"
#include "net/fault.h"

namespace remora {
namespace {

using test::runToCompletion;
using test::TwoNodeCluster;

struct EdgeFixture
{
    TwoNodeCluster cluster;
    dfs::FileStore store;
    dfs::FileServer server;
    mem::Process &clerkProc;
    rpc::Hybrid1Client hyClient;
    dfs::HyBackend hy;
    dfs::DxBackend dx;
    dfs::FileHandle file; // 20000 bytes: three blocks, short tail
    dfs::FileHandle dir;

    EdgeFixture()
        : server(cluster.engineB, store),
          clerkProc(cluster.nodeA.spawnProcess("clerk")),
          hyClient(cluster.engineA, clerkProc, server.hybridHandle(),
                   server.allocClientSlot()),
          hy(hyClient),
          dx(cluster.engineA, clerkProc, server.areaHandles(),
             dfs::CacheGeometry{}, &hyClient)
    {
        auto f = store.createFile(store.root(), "edge.bin", 20000);
        EXPECT_TRUE(f.ok());
        file = f.value();
        auto d = store.mkdir(store.root(), "d");
        EXPECT_TRUE(d.ok());
        dir = d.value();
        for (int i = 0; i < 30; ++i) {
            EXPECT_TRUE(
                store.createFile(d.value(), "e" + std::to_string(i), 1)
                    .ok());
        }
        server.warmCaches();
        server.start();
        cluster.sim.run();
    }
};

TEST(DfsEdge, UnalignedReadWithinBlockDx)
{
    EdgeFixture f;
    auto t = f.dx.read(f.file, 100, 500);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value(), f.store.read(f.file, 100, 500).value());
}

TEST(DfsEdge, ReadCrossingBlockBoundaryDx)
{
    EdgeFixture f;
    // 8192-byte blocks: [8000, 8600) spans blocks 0 and 1.
    auto t = f.dx.read(f.file, 8000, 600);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value(), f.store.read(f.file, 8000, 600).value());
}

TEST(DfsEdge, ReadIntoShortTailBlock)
{
    EdgeFixture f;
    // The file is 20000 bytes; block 2 holds only 3616 valid bytes.
    auto t = f.dx.read(f.file, 16384, 8192);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().size(), 20000u - 16384u);
    EXPECT_EQ(got.value(), f.store.read(f.file, 16384, 8192).value());
}

TEST(DfsEdge, ReadEntirelyPastEofReturnsEmpty)
{
    EdgeFixture f;
    for (dfs::FileServiceBackend *b :
         std::initializer_list<dfs::FileServiceBackend *>{&f.dx, &f.hy}) {
        auto t = b->read(f.file, 40000, 1000);
        auto got = runToCompletion(f.cluster.sim, t);
        ASSERT_TRUE(got.ok()) << b->name();
        EXPECT_TRUE(got.value().empty()) << b->name();
    }
}

TEST(DfsEdge, ZeroByteReadSucceeds)
{
    EdgeFixture f;
    auto t = f.dx.read(f.file, 0, 0);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value().empty());
}

TEST(DfsEdge, ReaddirRespectsByteBudget)
{
    EdgeFixture f;
    auto all = f.hy.readdir(f.dir, 4096);
    auto allGot = runToCompletion(f.cluster.sim, all);
    ASSERT_TRUE(allGot.ok());
    size_t total = allGot.value().size();
    EXPECT_EQ(total, 32u); // 30 files + "." + ".."

    auto some = f.hy.readdir(f.dir, 128);
    auto someGot = runToCompletion(f.cluster.sim, some);
    ASSERT_TRUE(someGot.ok());
    EXPECT_GT(someGot.value().size(), 0u);
    EXPECT_LT(someGot.value().size(), total);

    // DX honours the same budget against its packed-entry area.
    auto dxSome = f.dx.readdir(f.dir, 128);
    auto dxGot = runToCompletion(f.cluster.sim, dxSome);
    ASSERT_TRUE(dxGot.ok());
    EXPECT_EQ(dxGot.value().size(), someGot.value().size());
}

TEST(DfsEdge, UnalignedDxWriteUsesDataThenTagOrder)
{
    EdgeFixture f;
    // A write at a non-zero block offset takes the two-write path
    // (data first, tag last) and must still land correctly.
    std::vector<uint8_t> data(256, 0x9d);
    auto w = f.dx.write(f.file, 1000, data);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, w).ok());
    f.cluster.sim.run();
    f.server.scavengeDirtyBlocks();
    auto back = f.store.read(f.file, 1000, 256);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), data);
}

TEST(DfsEdge, StatfsReflectsGrowth)
{
    EdgeFixture f;
    auto before = f.hy.statfs();
    auto b = runToCompletion(f.cluster.sim, before);
    ASSERT_TRUE(b.ok());

    auto w = f.hy.write(f.file, 30000, std::vector<uint8_t>(8192, 1));
    ASSERT_TRUE(runToCompletion(f.cluster.sim, w).ok());
    f.cluster.sim.run();

    auto after = f.hy.statfs();
    auto a = runToCompletion(f.cluster.sim, after);
    ASSERT_TRUE(a.ok());
    EXPECT_LT(a.value().freeBytes, b.value().freeBytes);
}

TEST(DfsEdge, GrowingWriteThenDxReadOfNewBlock)
{
    EdgeFixture f;
    // Extend the file through the server path; its new block must be
    // cached and DX-readable without a miss.
    std::vector<uint8_t> tail(4096, 0xee);
    auto w = f.hy.write(f.file, 24576, tail); // block 3, beyond old EOF
    ASSERT_TRUE(runToCompletion(f.cluster.sim, w).ok());
    f.cluster.sim.run();

    uint64_t misses = f.dx.misses();
    auto r = f.dx.read(f.file, 24576, 4096);
    auto got = runToCompletion(f.cluster.sim, r);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), tail);
    EXPECT_EQ(f.dx.misses(), misses);
}

// ----------------------------------------------------------------------
// Injected outage: the read window degrades instead of failing
// ----------------------------------------------------------------------

struct DfsFaultFixture
{
    TwoNodeCluster cluster;
    dfs::FileStore store;
    dfs::FileServer server;
    mem::Process &clerkProc;
    dfs::DxBackend dx;
    dfs::FileHandle file;

    DfsFaultFixture()
        : server(cluster.engineB, store),
          clerkProc(cluster.nodeA.spawnProcess("clerk")),
          dx(cluster.engineA, clerkProc, server.areaHandles(),
             dfs::CacheGeometry{}, nullptr)
    {
        auto f = store.createFile(store.root(), "data.bin", 20000);
        EXPECT_TRUE(f.ok());
        file = f.value();
        server.warmCaches();
        server.start();
        cluster.sim.run();
    }
};

TEST(DfsFault, PartialBlockWritePreservesBlockValidRange)
{
    // Lossless regression for the bug the 5%-drop workload exposed: a
    // DX write covering only a prefix of block 1 must not shrink the
    // block's valid range. Before the header-merge fix it stamped
    // validBytes = 4096 over a fully-valid block, and the next read
    // mistook the cut for end-of-file, returning 12288 of 20000 bytes.
    DfsFaultFixture f;
    std::vector<uint8_t> patch(4096, 0x5a);
    auto w = f.dx.write(f.file, 8192, patch);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, w).ok());
    f.cluster.sim.run();
    f.server.scavengeDirtyBlocks();

    auto t = f.dx.read(f.file, 0, 20000);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    ASSERT_EQ(got.value().size(), 20000u);
    EXPECT_EQ(got.value(), f.store.read(f.file, 0, 20000).value());
    EXPECT_EQ(std::vector<uint8_t>(got.value().begin() + 8192,
                                   got.value().begin() + 8192 + 4096),
              patch);
    EXPECT_EQ(f.dx.misses(), 0u);
}

TEST(DfsFault, ReadShrinksItsWindowAcrossAnOutage)
{
    DfsFaultFixture f;
    sim::Time t0 = f.cluster.sim.now();
    net::FaultPlan plan;
    plan.pauses.push_back({t0, t0 + sim::msec(250)});
    f.cluster.network.installFaults(plan);

    // kDxReadTimeout is 100 ms: the first window (3 blocks) times out
    // inside the outage, halves twice, and the window-1 attempt issued
    // at ~200 ms is delivered when the outage lifts at 250 ms — well
    // inside its own deadline. The read completes; it never fails.
    auto t = f.dx.read(f.file, 0, 20000);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value(), f.store.read(f.file, 0, 20000).value());
    EXPECT_GE(f.dx.windowShrinks(), 2u);
    EXPECT_EQ(f.dx.misses(), 0u);
    f.cluster.sim.run();
    EXPECT_EQ(f.cluster.sim.blockedTaskCount(), 0u);
}

TEST(DfsFault, FivePercentDropLosesNothingUserVisible)
{
    // The acceptance workload: the full DFS stack over a link dropping
    // 5% of all cells. With the reliable wire underneath, loss shows
    // up as latency, never as a failed or corrupt user-visible op.
    DfsFaultFixture f;
    f.cluster.enableReliability();
    net::FaultPlan plan;
    plan.seed = 23;
    plan.dropRate = 0.05;
    f.cluster.network.installFaults(plan);

    std::vector<uint8_t> fresh(8192);
    for (size_t j = 0; j < fresh.size(); ++j) {
        fresh[j] = static_cast<uint8_t>(j * 7 + 3);
    }
    auto w = f.dx.write(f.file, 4096, fresh);
    auto ws = runToCompletion(f.cluster.sim, w);
    ASSERT_TRUE(ws.ok()) << ws.toString();
    f.cluster.sim.run(); // let retransmit-delayed deposits settle
    f.server.scavengeDirtyBlocks();

    auto t = f.dx.read(f.file, 0, 20000);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    ASSERT_EQ(got.value().size(), 20000u);
    EXPECT_EQ(got.value(), f.store.read(f.file, 0, 20000).value());
    EXPECT_EQ(std::vector<uint8_t>(got.value().begin() + 4096,
                                   got.value().begin() + 4096 + 8192),
              fresh);

    EXPECT_GT(f.cluster.network.totalFaultDrops(), 0u);
    EXPECT_GT(f.cluster.engineA.wire().retransmits() +
                  f.cluster.engineB.wire().retransmits(),
              0u);
    f.cluster.sim.run();
    EXPECT_EQ(f.cluster.sim.blockedTaskCount(), 0u);
}

TEST(DfsEdge, LongNameLookupFallsBackGracefully)
{
    EdgeFixture f;
    // Names longer than the name-record field cannot live in the DX
    // area; the lookup must still succeed via the fallback.
    std::string longName(100, 'n');
    auto fh = f.store.createFile(f.store.root(), longName, 64);
    ASSERT_TRUE(fh.ok());
    f.server.cacheName(f.store.root(), longName); // silently skipped
    auto t = f.dx.lookup(f.store.root(), longName);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().fh, fh.value());
    EXPECT_GE(f.dx.misses(), 1u);
}

} // namespace
} // namespace remora
