/**
 * @file
 * Distributed-file-service tests: cache-area record codecs, server
 * dispatch, the three backends' behavioural equivalence, DX writes with
 * the lazy scavenger, miss fallback, and the caching clerk.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

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

TEST(CacheLayout, EveryRecordKeepsItsBytes)
{
    using test::bytesOf;
    using test::hexOf;
    dfs::FileAttr attr;
    attr.type = dfs::FileType::kDirectory;
    attr.mode = 0755;
    attr.nlink = 3;
    attr.uid = 100;
    attr.gid = 20;
    attr.size = 0x0102030405;
    attr.bytesUsed = 0x2000;
    attr.fileid = 0xabcdef;
    attr.atime = 11;
    attr.mtime = 22;
    attr.ctime = 33;

    // Encode @p rec, compare with @p hex, and decode the golden bytes back.
    auto check = [](const auto &rec, const std::string &hex) {
        using Rec = std::remove_cvref_t<decltype(rec)>;
        std::vector<uint8_t> buf(hex.size() / 2, 0xee);
        rec.encode(buf);
        EXPECT_EQ(hexOf(buf), hex);
        std::vector<uint8_t> again(buf.size(), 0xee);
        Rec::decode(bytesOf(hex)).encode(again);
        EXPECT_EQ(hexOf(again), hex);
    };

    dfs::AttrRecord a;
    a.flag = dfs::kSlotValid;
    a.fhKey = 0x1122334455667788ull;
    a.attr = attr;
    check(a,
          "0100000000000000887766554433221102000000ed0100000300000064000000"
          "1400000005040302010000000020000000000000efcdab00000000000b000000"
          "16000000210000000000000000000000");

    dfs::NameLookupRecord n;
    n.flag = dfs::kSlotValid;
    n.dirKey = 0x0a0b;
    n.childKey = 0x0c0d;
    n.childAttr = attr;
    n.name = "report.txt";
    check(n,
          "01000000000000000b0a0000000000000d0c00000000000002000000ed010000"
          "03000000640000001400000005040302010000000020000000000000efcdab00"
          "000000000b00000016000000210000000a7265706f72742e7478740000000000"
          "0000000000000000000000000000000000000000000000000000000000000000"
          "0000000000000000000000000000000000000000000000000000000000000000");

    dfs::DataSlotHeader d;
    d.flag = dfs::kSlotValid;
    d.dirty = 1;
    d.fhKey = 0x55;
    d.blockNo = 9;
    d.validBytes = 8192;
    check(d,
          "0100000001000000550000000000000009000000000000000020000000000000");

    dfs::DirSlotHeader dir;
    dir.flag = dfs::kSlotValid;
    dir.dirKey = 0x33;
    dir.bytes = 123;
    dir.entryCount = 7;
    check(dir,
          "010000000000000033000000000000007b000000070000000000000000000000");

    dfs::LinkRecord link;
    link.flag = dfs::kSlotValid;
    link.fhKey = 0x88;
    link.target = "../somewhere/else";
    check(link,
          "010000008800000000000000110000002e2e2f736f6d6577686572652f656c73"
          "6500000000000000000000000000000000000000000000000000000000000000"
          "0000000000000000000000000000000000000000000000000000000000000000"
          "0000000000000000000000000000000000000000000000000000000000000000");

    dfs::StatRecord st;
    st.flag = dfs::kSlotValid;
    st.stat = {0x10000000, 0x08000000, 4242, 8192};
    check(st,
          "0100000000000000000000100000000000000008000000009210000000000000"
          "0020000000000000000000000000000000000000000000000000000000000000");
}

TEST(CacheLayout, BucketFunctionsAreDeterministic)
{
    dfs::CacheGeometry geo;
    EXPECT_EQ(dfs::AttrRecord(7).offset(geo), dfs::AttrRecord(7).offset(geo));
    EXPECT_EQ(dfs::NameLookupRecord(1, "x").offset(geo),
              dfs::NameLookupRecord(1, "x").offset(geo));
    EXPECT_NE(dfs::NameLookupRecord(1, "x").offset(geo),
              dfs::NameLookupRecord(1, "y").offset(geo));
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

    explicit DfsFixture(const dfs::CacheGeometry &geometry = {})
        : server(cluster.engineB, store, geometry),
          clerkProc(cluster.nodeA.spawnProcess("clerk")),
          hyClient(cluster.engineA, clerkProc, server.hybridHandle(),
                   server.allocClientSlot()),
          hy(hyClient),
          dx(cluster.engineA, clerkProc, server.areaHandles(), geometry,
             &hyClient),
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

/**
 * A MarshaledBackend wired straight to a server's dispatcher. It keeps
 * the last call and reply bodies, can cut each reply short, and with
 * dispatch off only records the call.
 */
class TapBackend : public dfs::MarshaledBackend
{
  public:
    explicit TapBackend(dfs::FileServer &server) : server_(server) {}

    const char *name() const override { return "tap"; }

    /** The last call body sent. */
    std::vector<uint8_t> call;
    /** The last reply body the server gave. */
    std::vector<uint8_t> reply;
    /** Bytes to drop from the end of each reply before decoding. */
    size_t cut = 0;
    /** False: record the call, answer with an empty body. */
    bool dispatch = true;

  protected:
    sim::Task<util::Result<std::vector<uint8_t>>>
    roundTrip(std::vector<uint8_t> body) override
    {
        call = body;
        reply.clear();
        if (dispatch) {
            reply = co_await server_.handleBody(1, std::move(body));
        }
        co_return std::vector<uint8_t>(
            reply.begin(),
            reply.end() - static_cast<long>(std::min(cut, reply.size())));
    }

  private:
    dfs::FileServer &server_;
};

// ----------------------------------------------------------------------
// NFS call and reply bytes
// ----------------------------------------------------------------------

TEST(NfsProto, EveryCallAndReplyKeepsItsBytes)
{
    using test::hexOf;
    DfsFixture f;
    TapBackend tap(f.server);
    // Run @p task; compare the call it sent and the reply it got.
    auto check = [&](auto task, const std::string &call,
                     const std::string &reply) {
        auto got = runToCompletion(f.cluster.sim, task);
        EXPECT_EQ(hexOf(tap.call), call);
        EXPECT_EQ(hexOf(tap.reply), reply);
        return got;
    };
    // The 17-word attributes of paper.ps (before and after the write).
    const std::string attr =
        "01000000a4010000010000000000000000000000204e00000000000000600000"
        "00000000020000000000000043420f0043420f0043420f00";
    const std::string fh =
        "0200000001000000000000000000000000000000000000000000000000000000";

    EXPECT_TRUE(check(tap.null(), "00000000", "00000000").ok());
    EXPECT_EQ(check(tap.getattr(f.file), "01000000" + fh, "00000000" + attr)
                  .value()
                  .size,
              20000u);
    EXPECT_EQ(check(tap.lookup(f.dir, "paper.ps"),
                    "04000000"
                    "0100000001000000000000000000000000000000000000000000"
                    "000000000000"
                    "0800000070617065722e7073",
                    "00000000" + fh + attr)
                  .value()
                  .fh,
              f.file);
    EXPECT_EQ(check(tap.readlink(f.link),
                    "05000000"
                    "0900000001000000000000000000000000000000000000000000"
                    "000000000000",
                    "000000000d000000646f63732f70617065722e7073000000")
                  .value(),
              "docs/paper.ps");
    EXPECT_EQ(check(tap.read(f.file, 100, 12),
                    "06000000" + fh + "64000000000000000c000000",
                    "00000000" + attr + "0c0000004f4c6864b484d70f4f4c6864")
                  .value(),
              f.store.read(f.file, 100, 12).value());
    EXPECT_EQ(check(tap.readdir(f.dir, 40),
                    "10000000"
                    "0100000001000000000000000000000000000000000000000000"
                    "000000000000"
                    "28000000",
                    "0000000003000000"
                    "0100000000000000010000002e000000"
                    "0000000000000000020000002e2e0000"
                    "03000000000000000400000066696730")
                  .value()
                  .size(),
              3u);
    EXPECT_EQ(check(tap.statfs(),
                    "11000000"
                    "0000000000000000000000000000000000000000000000000000"
                    "000000000000",
                    "00000000"
                    "000000800000000019a6ff7f000000000a0000000000000000200000")
                  .value()
                  .totalFiles,
              10u);
    std::string written = attr;
    written.replace(written.size() - 16, 8, "53420f00"); // the new mtime
    EXPECT_TRUE(check(tap.write(f.file, 8190, {0xa1, 0xa2, 0xa3, 0xa4, 0xa5}),
                      "08000000" + fh + "fe1f000000000000" +
                          "05000000a1a2a3a4a5000000",
                      "00000000" + written)
                    .ok());
    // A failure is the status word alone.
    EXPECT_EQ(check(tap.getattr(dfs::FileHandle{9999, 1}),
                    "010000000f270000010000000000000000000000000000000000"
                    "00000000000000000000",
                    "01000000")
                  .status()
                  .code(),
              util::ErrorCode::kBadDescriptor);
}

TEST(NfsProto, ReplyCutShortIsMalformed)
{
    DfsFixture f;
    TapBackend tap(f.server);
    tap.cut = 4;
    auto getattr = tap.getattr(f.file);
    EXPECT_EQ(runToCompletion(f.cluster.sim, getattr).status().code(),
              util::ErrorCode::kMalformed);
    auto read = tap.read(f.file, 0, 100);
    EXPECT_EQ(runToCompletion(f.cluster.sim, read).status().code(),
              util::ErrorCode::kMalformed);
    // Cut inside the status word: nothing decodes.
    tap.cut = 2;
    auto null = tap.null();
    EXPECT_EQ(runToCompletion(f.cluster.sim, null).code(),
              util::ErrorCode::kMalformed);
}

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

TEST(DfsWrite, DxPartialWriteAtBlockStartIntoAForeignSlotGoesToServer)
{
    // One data slot, holding block 1: a 100-byte DX write to block 0's
    // first bytes must not claim the slot with a 100-byte extent, or
    // the next 8 KB DX read of block 0 comes back 100 bytes long.
    dfs::CacheGeometry geo;
    geo.dataSlots = 1;
    DfsFixture f(geo);
    f.server.cacheBlock(f.file, 1);
    f.cluster.sim.run();

    uint64_t misses = f.dx.misses();
    std::vector<uint8_t> data(100, 0x7c);
    auto w = f.dx.write(f.file, 0, data);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, w).ok());
    f.cluster.sim.run();
    EXPECT_EQ(f.dx.misses(), misses + 1); // served by the fallback

    auto rd = f.dx.read(f.file, 0, 8192);
    auto got = runToCompletion(f.cluster.sim, rd);
    ASSERT_TRUE(got.ok());
    std::vector<uint8_t> want = f.store.read(f.file, 0, 8192).value();
    ASSERT_EQ(want.size(), 8192u);
    EXPECT_TRUE(std::equal(data.begin(), data.end(), want.begin()));
    EXPECT_EQ(got.value(), want);
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

TEST(DfsServer, CallThatDoesNotDecodeIsMalformedAndTouchesNothing)
{
    DfsFixture f;
    TapBackend tap(f.server);
    tap.dispatch = false;
    // Answer @p body cut @p cut bytes short; the status word alone.
    auto answer = [&f](std::vector<uint8_t> body, size_t cut) {
        body.resize(body.size() - cut);
        auto t = f.server.handleBody(1, std::move(body));
        return test::hexOf(runToCompletion(f.cluster.sim, t));
    };
    const std::string malformed = "07000000";
    ASSERT_EQ(static_cast<uint32_t>(util::ErrorCode::kMalformed), 7u);

    auto w = tap.write(f.file, 0, std::vector<uint8_t>(100, 0x5a));
    runToCompletion(f.cluster.sim, w);
    std::vector<uint8_t> before = f.store.read(f.file, 0, 100).value();
    uint64_t inserts = f.server.stats().cacheInserts.value();
    EXPECT_EQ(answer(tap.call, 40), malformed);
    EXPECT_EQ(f.store.read(f.file, 0, 100).value(), before);
    EXPECT_EQ(f.server.stats().cacheInserts.value(), inserts);

    // A name cut short is not looked up.
    auto l = tap.lookup(f.dir, "paper.ps");
    runToCompletion(f.cluster.sim, l);
    EXPECT_EQ(answer(tap.call, 4), malformed);
    // Nor is a call without a whole procedure word.
    EXPECT_EQ(answer({0x01, 0x00}, 0), malformed);
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

    EXPECT_EQ(clerk.stats().requests.value(), 8u);
    EXPECT_EQ(clerk.stats().backendCalls.value(), 4u);
    EXPECT_EQ(clerk.stats().localHits.value(), 4u);
}

TEST(ServerClerk, WriteUpdatesCachedBlocks)
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

TEST(ServerClerk, ShortAlignedWriteKeepsTheRestOfTheBlock)
{
    DfsFixture f;
    dfs::ServerClerk clerk(f.cluster.nodeA.cpu(), f.dx);
    auto w = clerk.write(f.file, 0, std::vector<uint8_t>(100, 0x77));
    ASSERT_TRUE(runToCompletion(f.cluster.sim, w).ok());
    auto r = clerk.read(f.file, 0, 8192);
    auto got = runToCompletion(f.cluster.sim, r);
    auto fresh = f.dx.read(f.file, 0, 8192);
    auto want = runToCompletion(f.cluster.sim, fresh);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got.value().size(), 8192u);
    EXPECT_EQ(got.value(), want.value());
}

TEST(ServerClerk, UnalignedWriteDoesNotLeaveTheCachedBlockStale)
{
    DfsFixture f;
    dfs::ServerClerk clerk(f.cluster.nodeA.cpu(), f.dx);
    auto r1 = clerk.read(f.file, 0, 8192);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, r1).ok());
    auto w = clerk.write(f.file, 100, std::vector<uint8_t>(50, 0x77));
    ASSERT_TRUE(runToCompletion(f.cluster.sim, w).ok());
    auto r2 = clerk.read(f.file, 0, 8192);
    auto got = runToCompletion(f.cluster.sim, r2);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().size(), 8192u);
    EXPECT_EQ(got.value()[100], 0x77);
    auto fresh = f.dx.read(f.file, 0, 8192);
    EXPECT_EQ(got.value(), runToCompletion(f.cluster.sim, fresh).value());
}

TEST(ServerClerk, ShortReadDoesNotStandInForItsBlock)
{
    DfsFixture f;
    dfs::ServerClerk clerk(f.cluster.nodeA.cpu(), f.dx);
    auto r1 = clerk.read(f.file, 0, 1024);
    EXPECT_EQ(runToCompletion(f.cluster.sim, r1).value().size(), 1024u);
    auto r2 = clerk.read(f.file, 0, 8192);
    EXPECT_EQ(runToCompletion(f.cluster.sim, r2).value(),
              f.store.read(f.file, 0, 8192).value());
    // The tail block, short at end of file, is cached and served.
    auto tail = clerk.read(f.file, 16384, 8192);
    EXPECT_EQ(runToCompletion(f.cluster.sim, tail).value().size(), 3616u);
    uint64_t calls = clerk.stats().backendCalls.value();
    auto again = clerk.read(f.file, 16384, 8192);
    EXPECT_EQ(runToCompletion(f.cluster.sim, again).value().size(), 3616u);
    EXPECT_EQ(clerk.stats().backendCalls.value(), calls);
}

TEST(ServerClerk, ReaddirAnswersEachBudgetWithItsOwnListing)
{
    DfsFixture f;
    dfs::ServerClerk clerk(f.cluster.nodeA.cpu(), f.dx);
    auto small = clerk.readdir(f.dir, 24);
    EXPECT_EQ(runToCompletion(f.cluster.sim, small).value().size(), 2u);
    auto full = clerk.readdir(f.dir, 4096);
    EXPECT_EQ(runToCompletion(f.cluster.sim, full).value().size(), 9u);
    auto again = clerk.readdir(f.dir, 24);
    EXPECT_EQ(runToCompletion(f.cluster.sim, again).value().size(), 2u);
    EXPECT_EQ(clerk.stats().localHits.value(), 1u);
}

TEST(ServerClerk, LocalRpcChargedWhenEnabled)
{
    DfsFixture f;
    dfs::ServerClerk clerk(f.cluster.nodeA.cpu(), f.dx);
    f.cluster.sim.run();
    sim::Duration before =
        f.cluster.nodeA.cpu().busyIn(sim::CpuCategory::kProcInvoke);
    auto t = clerk.lookup(f.dir, "paper.ps");
    runToCompletion(f.cluster.sim, t);
    sim::Duration after =
        f.cluster.nodeA.cpu().busyIn(sim::CpuCategory::kProcInvoke);
    rpc::LocalRpcCosts costs;
    EXPECT_GE(after - before, costs.callPath + costs.returnPath);
}

// ----------------------------------------------------------------------
// Placement: with one slot per area, the datum cached last holds it and
// a probe for any other datum of the area reads a valid record of
// another tag.
// ----------------------------------------------------------------------

TEST(CacheLayout, EachAreaHitsItsKeyAndMissesAnother)
{
    DfsFixture f(dfs::CacheGeometry{1, 1, 1, 1, 1});
    uint64_t files = f.store.statfs().totalFiles;
    auto other = f.store.symlink(f.store.root(), "older", "docs");
    ASSERT_TRUE(other.ok());
    // Run @p task, check its value against @p truth, and count a miss
    // unless @p hit.
    uint64_t misses = 0;
    auto expect = [&](auto task, const auto &truth, bool hit) {
        auto got = runToCompletion(f.cluster.sim, task);
        EXPECT_TRUE(got.ok()) << got.status().toString();
        misses += hit ? 0 : 1;
        EXPECT_EQ(f.dx.misses(), misses);
        if (got.ok()) {
            EXPECT_TRUE(got.value() == truth);
        }
    };
    auto size = [](const auto &r) { return r.value().size; };

    f.server.cacheAttr(f.file);
    auto fileAttr = f.dx.getattr(f.file);
    EXPECT_EQ(size(runToCompletion(f.cluster.sim, fileAttr)), 20000u);
    EXPECT_EQ(f.dx.misses(), misses);
    auto dirAttr = f.dx.getattr(f.dir);
    EXPECT_EQ(size(runToCompletion(f.cluster.sim, dirAttr)),
              size(f.store.getattr(f.dir)));
    EXPECT_EQ(f.dx.misses(), ++misses);

    f.server.cacheName(f.dir, "paper.ps");
    auto hit = f.dx.lookup(f.dir, "paper.ps");
    EXPECT_EQ(runToCompletion(f.cluster.sim, hit).value().fh, f.file);
    EXPECT_EQ(f.dx.misses(), misses);
    auto miss = f.dx.lookup(f.dir, "fig0");
    EXPECT_EQ(runToCompletion(f.cluster.sim, miss).value().fh,
              f.store.lookup(f.dir, "fig0").value());
    EXPECT_EQ(f.dx.misses(), ++misses);

    f.server.cacheBlock(f.file, 0);
    expect(f.dx.read(f.file, 0, 100), f.store.read(f.file, 0, 100).value(),
           true);
    expect(f.dx.read(f.file, 8192, 100),
           f.store.read(f.file, 8192, 100).value(), false);

    f.server.cacheDir(f.dir);
    auto names = [](const std::vector<dfs::DirEntry> &entries) {
        std::vector<std::string> out;
        for (const dfs::DirEntry &e : entries) {
            out.push_back(e.name);
        }
        return out;
    };
    auto dirHit = f.dx.readdir(f.dir, 4096);
    EXPECT_EQ(names(runToCompletion(f.cluster.sim, dirHit).value()),
              names(f.store.readdir(f.dir).value()));
    EXPECT_EQ(f.dx.misses(), misses);
    auto dirMiss = f.dx.readdir(f.store.root(), 4096);
    EXPECT_EQ(names(runToCompletion(f.cluster.sim, dirMiss).value()),
              names(f.store.readdir(f.store.root()).value()));
    EXPECT_EQ(f.dx.misses(), ++misses);

    f.server.cacheLink(f.link);
    expect(f.dx.readlink(f.link), std::string("docs/paper.ps"), true);
    expect(f.dx.readlink(other.value()), std::string("docs"), false);

    // The statistics area has one slot and no key: always a hit.
    auto stat = f.dx.statfs();
    EXPECT_EQ(runToCompletion(f.cluster.sim, stat).value().totalFiles,
              files);
    EXPECT_EQ(f.dx.misses(), misses);
}

TEST(CacheLayout, RecordsHoldOnlyTheirValidExactKey)
{
    dfs::CacheGeometry geo;
    dfs::AttrRecord attr(7);
    EXPECT_FALSE(attr.holds(dfs::AttrRecord(7))); // not yet valid
    attr.flag = dfs::kSlotValid;
    EXPECT_TRUE(attr.holds(dfs::AttrRecord(7)));
    EXPECT_FALSE(attr.holds(dfs::AttrRecord(8)));
    EXPECT_EQ(attr.offset(geo),
              util::mix64(7) % geo.attrBuckets * dfs::kAttrRecBytes);

    dfs::NameLookupRecord name(3, "a");
    name.flag = dfs::kSlotValid;
    EXPECT_TRUE(name.holds(dfs::NameLookupRecord(3, "a")));
    EXPECT_FALSE(name.holds(dfs::NameLookupRecord(3, "b")));
    EXPECT_FALSE(name.holds(dfs::NameLookupRecord(4, "a")));

    dfs::DataSlotHeader block(5, 1);
    block.flag = dfs::kSlotValid;
    EXPECT_TRUE(block.holds(dfs::DataSlotHeader(5, 1)));
    EXPECT_FALSE(block.holds(dfs::DataSlotHeader(5, 2)));
    EXPECT_EQ(block.offset(geo), dfs::DataSlotHeader::slotOffset(
                                     dfs::dataSlot(5, 1, geo.dataSlots)));
    // The eviction tag is the one the server always counted with.
    EXPECT_EQ(block.tag(), 5u ^ 1u);
    EXPECT_EQ(name.tag(), 3u ^ util::fnv1a("a"));
}

} // namespace
} // namespace remora
