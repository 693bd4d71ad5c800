/**
 * @file
 * Distributed-file-service tests: cache-area record codecs, server
 * dispatch, the three backends' behavioural equivalence, DX writes with
 * the lazy scavenger, miss fallback, and the caching clerk.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "dfs/backend.h"
#include "dfs/cache_layout.h"
#include "dfs/clerk.h"
#include "dfs/server.h"

namespace remora {
namespace {

using test::runToCompletion;
using test::TwoNodeCluster;

// ----------------------------------------------------------------------
// Cache-area record codecs
// ----------------------------------------------------------------------

TEST(CacheLayout, AttrRecordRoundTrip)
{
    dfs::AttrRecord rec;
    rec.flag = dfs::kSlotValid;
    rec.fhKey = 0x1122334455667788ull;
    rec.attr.type = dfs::FileType::kSymlink;
    rec.attr.size = 777;
    rec.attr.fileid = 99;
    std::vector<uint8_t> buf(dfs::kAttrRecBytes);
    rec.encode(buf);
    dfs::AttrRecord out = dfs::AttrRecord::decode(buf);
    EXPECT_EQ(out.flag, rec.flag);
    EXPECT_EQ(out.fhKey, rec.fhKey);
    EXPECT_EQ(out.attr.type, rec.attr.type);
    EXPECT_EQ(out.attr.size, rec.attr.size);
    EXPECT_EQ(out.attr.fileid, rec.attr.fileid);
}

TEST(CacheLayout, NameRecordRoundTrip)
{
    dfs::NameLookupRecord rec;
    rec.flag = dfs::kSlotValid;
    rec.dirKey = 11;
    rec.childKey = 22;
    rec.childAttr.size = 4096;
    rec.name = "report.txt";
    std::vector<uint8_t> buf(dfs::kNameRecBytes);
    rec.encode(buf);
    dfs::NameLookupRecord out = dfs::NameLookupRecord::decode(buf);
    EXPECT_EQ(out.dirKey, rec.dirKey);
    EXPECT_EQ(out.childKey, rec.childKey);
    EXPECT_EQ(out.childAttr.size, rec.childAttr.size);
    EXPECT_EQ(out.name, rec.name);
}

TEST(CacheLayout, DataDirLinkStatHeadersRoundTrip)
{
    dfs::DataSlotHeader d;
    d.flag = dfs::kSlotValid;
    d.dirty = 1;
    d.fhKey = 5;
    d.blockNo = 9;
    d.validBytes = 8192;
    std::vector<uint8_t> buf(dfs::kDataHeaderBytes);
    d.encode(buf);
    auto d2 = dfs::DataSlotHeader::decode(buf);
    EXPECT_EQ(d2.dirty, 1u);
    EXPECT_EQ(d2.blockNo, 9u);
    EXPECT_EQ(d2.validBytes, 8192u);

    dfs::DirSlotHeader dir;
    dir.flag = dfs::kSlotValid;
    dir.dirKey = 3;
    dir.bytes = 123;
    dir.entryCount = 7;
    std::vector<uint8_t> dbuf(dfs::kDirHeaderBytes);
    dir.encode(dbuf);
    auto dir2 = dfs::DirSlotHeader::decode(dbuf);
    EXPECT_EQ(dir2.bytes, 123u);
    EXPECT_EQ(dir2.entryCount, 7u);

    dfs::LinkRecord link;
    link.flag = dfs::kSlotValid;
    link.fhKey = 8;
    link.target = "../somewhere/else";
    std::vector<uint8_t> lbuf(dfs::kLinkRecBytes);
    link.encode(lbuf);
    EXPECT_EQ(dfs::LinkRecord::decode(lbuf).target, link.target);

    dfs::StatRecord st;
    st.flag = dfs::kSlotValid;
    st.stat.totalFiles = 42;
    std::vector<uint8_t> sbuf(dfs::kStatRecBytes);
    st.encode(sbuf);
    EXPECT_EQ(dfs::StatRecord::decode(sbuf).stat.totalFiles, 42u);
}

TEST(CacheLayout, BucketFunctionsAreDeterministic)
{
    EXPECT_EQ(dfs::attrBucket(7, 128), dfs::attrBucket(7, 128));
    EXPECT_EQ(dfs::nameBucket(1, "x", 64), dfs::nameBucket(1, "x", 64));
    EXPECT_NE(dfs::nameBucket(1, "x", 1024), dfs::nameBucket(1, "y", 1024));
    EXPECT_LT(dfs::dataSlot(3, 5, 16), 16u);
}

// ----------------------------------------------------------------------
// Service fixture
// ----------------------------------------------------------------------

struct DfsFixture
{
    TwoNodeCluster cluster;
    dfs::FileStore store;
    dfs::FileServer server;
    mem::Process &clerkProc;
    rpc::Hybrid1Client hyClient;
    dfs::HyBackend hy;
    dfs::DxBackend dx;
    rpc::RpcTransport clientRpc;
    rpc::RpcTransport serverRpc;
    dfs::RpcBackend rpc;

    dfs::FileHandle file;
    dfs::FileHandle dir;
    dfs::FileHandle link;

    DfsFixture()
        : server(cluster.engineB, store),
          clerkProc(cluster.nodeA.spawnProcess("clerk")),
          hyClient(cluster.engineA, clerkProc, server.hybridHandle(),
                   server.allocClientSlot()),
          hy(hyClient),
          dx(cluster.engineA, clerkProc, server.areaHandles(),
             dfs::CacheGeometry{}, &hyClient),
          clientRpc(cluster.engineA.wire()),
          serverRpc(cluster.engineB.wire()), rpc(clientRpc, 2)
    {
        auto d = store.mkdir(store.root(), "docs");
        EXPECT_TRUE(d.ok());
        dir = d.value();
        auto f = store.createFile(dir, "paper.ps", 20000);
        EXPECT_TRUE(f.ok());
        file = f.value();
        for (int i = 0; i < 6; ++i) {
            EXPECT_TRUE(store
                            .createFile(dir, "fig" + std::to_string(i),
                                        500 + i)
                            .ok());
        }
        auto l = store.symlink(store.root(), "current", "docs/paper.ps");
        EXPECT_TRUE(l.ok());
        link = l.value();

        server.warmCaches();
        server.start();
        server.attachRpcTransport(serverRpc);
        cluster.sim.run();
    }
};

// ----------------------------------------------------------------------
// The core equivalence property: all three backends agree with the
// store on every operation.
// ----------------------------------------------------------------------

class BackendEquivalence
    : public ::testing::TestWithParam<const char *>
{
  protected:
    dfs::FileServiceBackend &
    backend(DfsFixture &f) const
    {
        std::string which = GetParam();
        if (which == "dx") {
            return f.dx;
        }
        if (which == "hy") {
            return f.hy;
        }
        return f.rpc;
    }
};

TEST_P(BackendEquivalence, GetattrMatchesStore)
{
    DfsFixture f;
    auto t = backend(f).getattr(f.file);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    auto truth = f.store.getattr(f.file);
    EXPECT_EQ(got.value().size, truth.value().size);
    EXPECT_EQ(got.value().fileid, truth.value().fileid);
    EXPECT_EQ(got.value().type, truth.value().type);
}

TEST_P(BackendEquivalence, LookupMatchesStore)
{
    DfsFixture f;
    auto t = backend(f).lookup(f.dir, "paper.ps");
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value().fh, f.file);
    EXPECT_EQ(got.value().attr.size, 20000u);
}

TEST_P(BackendEquivalence, ReadMatchesStore)
{
    DfsFixture f;
    for (auto [off, count] : std::vector<std::pair<uint64_t, uint32_t>>{
             {0, 1024}, {0, 8192}, {8192, 8192}, {16384, 8192}}) {
        auto t = backend(f).read(f.file, off, count);
        auto got = runToCompletion(f.cluster.sim, t);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        auto truth = f.store.read(f.file, off, count);
        EXPECT_EQ(got.value(), truth.value())
            << "mismatch at off=" << off << " count=" << count;
    }
}

TEST_P(BackendEquivalence, ReaddirMatchesStore)
{
    DfsFixture f;
    auto t = backend(f).readdir(f.dir, 4096);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    auto truth = f.store.readdir(f.dir);
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(got.value().size(), truth.value().size());
    for (size_t i = 0; i < got.value().size(); ++i) {
        EXPECT_EQ(got.value()[i].name, truth.value()[i].name);
        EXPECT_EQ(got.value()[i].fileid, truth.value()[i].fileid);
    }
}

TEST_P(BackendEquivalence, ReadlinkMatchesStore)
{
    DfsFixture f;
    auto t = backend(f).readlink(f.link);
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value(), "docs/paper.ps");
}

TEST_P(BackendEquivalence, StatfsMatchesStore)
{
    DfsFixture f;
    auto t = backend(f).statfs();
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value().totalFiles, f.store.statfs().totalFiles);
}

TEST_P(BackendEquivalence, NullSucceeds)
{
    DfsFixture f;
    auto t = backend(f).null();
    EXPECT_TRUE(runToCompletion(f.cluster.sim, t).ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendEquivalence,
                         ::testing::Values("dx", "hy", "rpc"));

// ----------------------------------------------------------------------
// Writes
// ----------------------------------------------------------------------

TEST(DfsWrite, HyWriteIsImmediatelyVisibleInStore)
{
    DfsFixture f;
    std::vector<uint8_t> data(4096, 0xd1);
    auto t = f.hy.write(f.file, 0, data);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, t).ok());
    auto back = f.store.read(f.file, 0, 4096);
    EXPECT_EQ(back.value(), data);
}

TEST(DfsWrite, DxWriteLandsInCacheThenStoreViaScavenger)
{
    DfsFixture f;
    std::vector<uint8_t> data(8192, 0xe2);
    auto t = f.dx.write(f.file, 0, data);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, t).ok());
    f.cluster.sim.run();

    // Visible through DX reads right away (the cache is authoritative).
    auto rd = f.dx.read(f.file, 0, 8192);
    auto got = runToCompletion(f.cluster.sim, rd);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), data);

    // The store still has the old bytes until a scavenger pass.
    EXPECT_NE(f.store.read(f.file, 0, 8192).value(), data);
    uint64_t applied = f.server.scavengeDirtyBlocks();
    EXPECT_EQ(applied, 1u);
    EXPECT_EQ(f.store.read(f.file, 0, 8192).value(), data);

    // Idempotent: a second pass finds nothing dirty.
    EXPECT_EQ(f.server.scavengeDirtyBlocks(), 0u);
}

TEST(DfsWrite, DxMultiBlockWrite)
{
    DfsFixture f;
    std::vector<uint8_t> data(20000, 0xf3);
    auto t = f.dx.write(f.file, 0, data);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, t).ok());
    f.cluster.sim.run();
    EXPECT_EQ(f.server.scavengeDirtyBlocks(), 3u);
    EXPECT_EQ(f.store.read(f.file, 0, 20000).value(), data);
}

// ----------------------------------------------------------------------
// Miss fallback
// ----------------------------------------------------------------------

TEST(DfsMiss, UncachedFileFallsBackToControlTransfer)
{
    DfsFixture f;
    // Create a file AFTER warmCaches: its records are absent.
    auto fresh = f.store.createFile(f.store.root(), "late.txt", 3000);
    ASSERT_TRUE(fresh.ok());

    auto t = f.dx.getattr(fresh.value());
    auto got = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value().size, 3000u);
    EXPECT_GE(f.dx.misses(), 1u);

    auto rd = f.dx.read(fresh.value(), 0, 3000);
    auto data = runToCompletion(f.cluster.sim, rd);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data.value(), f.store.read(fresh.value(), 0, 3000).value());
}

TEST(DfsMiss, WithoutFallbackMissSurfacesNotFound)
{
    DfsFixture f;
    dfs::DxBackend bare(f.cluster.engineA,
                        f.cluster.nodeA.spawnProcess("bare"),
                        f.server.areaHandles(), dfs::CacheGeometry{},
                        nullptr);
    auto fresh = f.store.createFile(f.store.root(), "orphan", 10);
    ASSERT_TRUE(fresh.ok());
    auto t = bare.getattr(fresh.value());
    auto got = runToCompletion(f.cluster.sim, t);
    EXPECT_EQ(got.status().code(), util::ErrorCode::kNotFound);
}

// ----------------------------------------------------------------------
// Server dispatch errors
// ----------------------------------------------------------------------

TEST(DfsServer, StaleHandleErrorsPropagate)
{
    DfsFixture f;
    dfs::FileHandle bogus{9999, 1};
    auto t = f.hy.getattr(bogus);
    auto got = runToCompletion(f.cluster.sim, t);
    EXPECT_FALSE(got.ok());
    auto t2 = f.hy.read(bogus, 0, 100);
    EXPECT_FALSE(runToCompletion(f.cluster.sim, t2).ok());
    auto t3 = f.hy.lookup(f.dir, "missing");
    EXPECT_EQ(runToCompletion(f.cluster.sim, t3).status().code(),
              util::ErrorCode::kNotFound);
}

TEST(DfsServer, WriteThroughHyRefreshesExportedCaches)
{
    DfsFixture f;
    std::vector<uint8_t> data(1024, 0x77);
    auto t = f.hy.write(f.file, 0, data);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, t).ok());
    f.cluster.sim.run();
    // A DX read now sees the HY-written bytes (server re-cached them).
    auto rd = f.dx.read(f.file, 0, 1024);
    auto got = runToCompletion(f.cluster.sim, rd);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), data);
    EXPECT_EQ(f.dx.misses(), 0u);
}

// ----------------------------------------------------------------------
// The caching clerk
// ----------------------------------------------------------------------

TEST(ServerClerk, CachesEveryAreaLocally)
{
    DfsFixture f;
    dfs::ServerClerk clerk(f.cluster.nodeA.cpu(), f.dx);

    // First touch goes to the backend; second is a local hit.
    auto a1 = clerk.getattr(f.file);
    runToCompletion(f.cluster.sim, a1);
    auto a2 = clerk.getattr(f.file);
    runToCompletion(f.cluster.sim, a2);
    auto l1 = clerk.lookup(f.dir, "paper.ps");
    runToCompletion(f.cluster.sim, l1);
    auto l2 = clerk.lookup(f.dir, "paper.ps");
    runToCompletion(f.cluster.sim, l2);
    auto r1 = clerk.read(f.file, 0, 8192);
    runToCompletion(f.cluster.sim, r1);
    auto r2 = clerk.read(f.file, 0, 8192);
    runToCompletion(f.cluster.sim, r2);
    auto d1 = clerk.readdir(f.dir, 4096);
    runToCompletion(f.cluster.sim, d1);
    auto d2 = clerk.readdir(f.dir, 4096);
    runToCompletion(f.cluster.sim, d2);
    auto s1 = clerk.readlink(f.link);
    runToCompletion(f.cluster.sim, s1);
    auto s2 = clerk.readlink(f.link);
    runToCompletion(f.cluster.sim, s2);

    EXPECT_EQ(clerk.stats().requests.value(), 10u);
    EXPECT_EQ(clerk.stats().backendCalls.value(), 5u);
    EXPECT_EQ(clerk.stats().localHits.value(), 5u);
}

TEST(ServerClerk, LookupPrimesAttrCache)
{
    DfsFixture f;
    dfs::ServerClerk clerk(f.cluster.nodeA.cpu(), f.dx);
    auto l = clerk.lookup(f.dir, "paper.ps");
    runToCompletion(f.cluster.sim, l);
    auto a = clerk.getattr(f.file);
    runToCompletion(f.cluster.sim, a);
    EXPECT_EQ(clerk.stats().localHits.value(), 1u); // attr came with lookup
}

TEST(ServerClerk, WriteInvalidatesAttrAndUpdatesBlocks)
{
    DfsFixture f;
    dfs::ServerClerk clerk(f.cluster.nodeA.cpu(), f.dx);

    auto r1 = clerk.read(f.file, 0, 8192);
    runToCompletion(f.cluster.sim, r1);
    std::vector<uint8_t> data(8192, 0x3e);
    auto w = clerk.write(f.file, 0, data);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, w).ok());

    // The local block cache serves the new data without a backend trip.
    uint64_t calls = clerk.stats().backendCalls.value();
    auto r2 = clerk.read(f.file, 0, 8192);
    auto got = runToCompletion(f.cluster.sim, r2);
    EXPECT_EQ(got.value(), data);
    EXPECT_EQ(clerk.stats().backendCalls.value(), calls);
}

TEST(ServerClerk, InvalidateAllForcesRefetch)
{
    DfsFixture f;
    dfs::ServerClerk clerk(f.cluster.nodeA.cpu(), f.dx);
    auto a1 = clerk.getattr(f.file);
    runToCompletion(f.cluster.sim, a1);
    clerk.invalidateAll();
    auto a2 = clerk.getattr(f.file);
    runToCompletion(f.cluster.sim, a2);
    EXPECT_EQ(clerk.stats().backendCalls.value(), 2u);
    EXPECT_EQ(clerk.stats().localHits.value(), 0u);
}

TEST(ServerClerk, LocalRpcChargedWhenEnabled)
{
    DfsFixture f;
    dfs::ServerClerk clerk(f.cluster.nodeA.cpu(), f.dx);
    f.cluster.sim.run();
    sim::Duration before =
        f.cluster.nodeA.cpu().busyIn(sim::CpuCategory::kProcInvoke);
    auto t = clerk.null();
    runToCompletion(f.cluster.sim, t);
    sim::Duration after =
        f.cluster.nodeA.cpu().busyIn(sim::CpuCategory::kProcInvoke);
    rpc::LocalRpcCosts costs;
    EXPECT_GE(after - before, costs.callPath + costs.returnPath);
}

} // namespace
} // namespace remora
