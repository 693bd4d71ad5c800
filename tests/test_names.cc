/**
 * @file
 * Name-service tests: record codec, registry semantics, remote
 * resolution under every probe policy, refresh, and failure handling.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "names/clerk.h"
#include "names/name_record.h"

namespace remora {
namespace {

using test::runToCompletion;
using test::TwoNodeCluster;

// ----------------------------------------------------------------------
// NameRecord codec
// ----------------------------------------------------------------------

class RecordRoundTrip : public ::testing::TestWithParam<std::string>
{};

TEST_P(RecordRoundTrip, EncodeDecode)
{
    names::NameRecord rec;
    rec.flag = names::RecordFlag::kValid;
    rec.node = 42;
    rec.descriptor = 7;
    rec.rights = rmem::Rights::kRead | rmem::Rights::kCas;
    rec.generation = 12345;
    rec.size = 0xabcdef01;
    rec.name = GetParam();

    std::vector<uint8_t> buf(names::NameRecord::kBytes);
    rec.encode(buf);
    names::NameRecord out = names::NameRecord::decode(buf);
    EXPECT_EQ(out.flag, rec.flag);
    EXPECT_EQ(out.node, rec.node);
    EXPECT_EQ(out.descriptor, rec.descriptor);
    EXPECT_EQ(out.rights, rec.rights);
    EXPECT_EQ(out.generation, rec.generation);
    EXPECT_EQ(out.size, rec.size);
    EXPECT_EQ(out.name, rec.name);

    // The prefix alone matches by hash.
    uint64_t hash = 0;
    names::NameRecord prefix = names::NameRecord::decodePrefix(buf, &hash);
    EXPECT_EQ(prefix.node, rec.node);
    EXPECT_EQ(hash, names::NameRecord::nameHashOf(rec.name));
}

INSTANTIATE_TEST_SUITE_P(
    Names, RecordRoundTrip,
    ::testing::Values("", "a", "db.index",
                      "a-name-that-uses-all-39-characters-....",
                      "unicode\xc3\xa9"));

TEST(RecordCodec, PrefixFitsOneCellReply)
{
    // 6-byte read-response header + prefix must fit one cell payload.
    EXPECT_LE(6u + names::NameRecord::kPrefixBytes, 48u);
}

TEST(RecordCodec, RecordKeepsItsBytes)
{
    names::NameRecord rec;
    rec.flag = names::RecordFlag::kValid;
    rec.node = 0x0102;
    rec.descriptor = 7;
    rec.rights = rmem::Rights::kRead | rmem::Rights::kWrite;
    rec.generation = 0x0a0b;
    rec.size = 0x00100000;
    rec.name = "db.index";
    const std::string hex =
        "01000000020107030b0a0000000010005df477db7767145a64622e696e646578"
        "0000000000000000000000000000000000000000000000000000000000000000";
    std::vector<uint8_t> buf(names::NameRecord::kBytes, 0xee);
    rec.encode(buf);
    EXPECT_EQ(test::hexOf(buf), hex);
    std::vector<uint8_t> again(names::NameRecord::kBytes, 0xee);
    names::NameRecord::decode(test::bytesOf(hex)).encode(again);
    EXPECT_EQ(test::hexOf(again), hex);
}

// ----------------------------------------------------------------------
// Clerk fixture
// ----------------------------------------------------------------------

struct NamesFixture
{
    TwoNodeCluster cluster;
    names::NameClerk clerkA;
    names::NameClerk clerkB;
    mem::Process &userA;

    explicit NamesFixture(const names::NameClerkParams &paramsB = {})
        : clerkA(cluster.engineA), clerkB(cluster.engineB, paramsB),
          userA(cluster.nodeA.spawnProcess("userA"))
    {
        clerkA.addPeer(2);
        clerkB.addPeer(1);
        cluster.sim.run();
    }

    util::Result<rmem::ImportedSegment>
    exportOnA(const std::string &name, uint32_t size = 4096)
    {
        mem::Vaddr base = userA.space().allocRegion(size);
        auto t = clerkA.exportByName(&userA, base, size, rmem::Rights::kAll,
                                     rmem::NotifyPolicy::kConditional, name);
        return runToCompletion(cluster.sim, t);
    }
};

// ----------------------------------------------------------------------
// Export / import / revoke basics
// ----------------------------------------------------------------------

TEST(NameClerk, ExportThenHintedImport)
{
    NamesFixture f;
    auto exp = f.exportOnA("alpha.seg");
    ASSERT_TRUE(exp.ok());

    auto t = f.clerkB.import("alpha.seg", 1);
    auto imp = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(imp.ok());
    EXPECT_EQ(imp.value().node, 1);
    EXPECT_EQ(imp.value().descriptor, exp.value().descriptor);
    EXPECT_EQ(imp.value().generation, exp.value().generation);
    EXPECT_EQ(imp.value().size, 4096u);
    EXPECT_EQ(f.clerkB.stats().remoteReads.value(), 1u);
}

TEST(NameClerk, SecondImportHitsCache)
{
    NamesFixture f;
    ASSERT_TRUE(f.exportOnA("x").ok());
    auto t1 = f.clerkB.import("x", 1);
    runToCompletion(f.cluster.sim, t1);
    uint64_t reads = f.clerkB.stats().remoteReads.value();
    auto t2 = f.clerkB.import("x", 1);
    auto imp = runToCompletion(f.cluster.sim, t2);
    ASSERT_TRUE(imp.ok());
    EXPECT_EQ(f.clerkB.stats().remoteReads.value(), reads);
    EXPECT_EQ(f.clerkB.stats().cacheHits.value(), 1u);
}

TEST(NameClerk, LocalNamesResolveWithoutWire)
{
    NamesFixture f;
    ASSERT_TRUE(f.exportOnA("local.seg").ok());
    auto t = f.clerkA.import("local.seg", std::nullopt);
    auto imp = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(imp.ok());
    EXPECT_EQ(f.clerkA.stats().localHits.value(), 1u);
    EXPECT_EQ(f.clerkA.stats().remoteReads.value(), 0u);
}

TEST(NameClerk, ImportWithoutHintSweepsPeers)
{
    NamesFixture f;
    ASSERT_TRUE(f.exportOnA("sweep.me").ok());
    auto t = f.clerkB.import("sweep.me", std::nullopt);
    auto imp = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(imp.ok());
    EXPECT_EQ(imp.value().node, 1);
}

TEST(NameClerk, AbsentNameIsDefinitiveNotFound)
{
    NamesFixture f;
    auto t = f.clerkB.import("never.exported", 1);
    auto imp = runToCompletion(f.cluster.sim, t);
    EXPECT_FALSE(imp.ok());
    EXPECT_EQ(imp.status().code(), util::ErrorCode::kNotFound);
    // One probe of an empty bucket answers definitively.
    EXPECT_EQ(f.clerkB.stats().remoteReads.value(), 1u);
}

TEST(NameClerk, DuplicateExportRejected)
{
    NamesFixture f;
    ASSERT_TRUE(f.exportOnA("dup").ok());
    auto second = f.exportOnA("dup");
    EXPECT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), util::ErrorCode::kAlreadyExists);
}

TEST(NameClerk, NameTooLongRejected)
{
    NamesFixture f;
    auto r = f.exportOnA(std::string(names::kMaxNameLen + 1, 'z'));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(NameClerk, OverLongImportRejectedWithoutWire)
{
    // A control-transfer lookup would copy the name into its fixed
    // request field, so an over-long name must stop at the import.
    names::NameClerkParams p;
    p.policy = names::ProbePolicy::kControlOnly;
    NamesFixture f(p);
    uint64_t cellsB = f.cluster.nodeB.nic().cellsTx();
    auto t = f.clerkB.import(std::string(200, 'x'), 1);
    auto imp = runToCompletion(f.cluster.sim, t);
    EXPECT_FALSE(imp.ok());
    EXPECT_EQ(imp.status().code(), util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(f.cluster.nodeB.nic().cellsTx(), cellsB);
    EXPECT_EQ(f.clerkB.stats().controlTransfers.value(), 0u);
}

TEST(NameClerk, RevokeMakesHandleStaleAndNameGone)
{
    NamesFixture f;
    auto exp = f.exportOnA("victim");
    ASSERT_TRUE(exp.ok());
    auto t1 = f.clerkB.import("victim", 1);
    auto imp = runToCompletion(f.cluster.sim, t1);
    ASSERT_TRUE(imp.ok());

    auto tr = f.clerkA.revoke("victim");
    ASSERT_TRUE(runToCompletion(f.cluster.sim, tr).ok());

    // The segment handle no longer works.
    auto read = f.cluster.engineB.read(
        imp.value(), 0, names::NameClerk::kScratchDescriptor, 0, 16, false,
        sim::msec(10));
    auto out = runToCompletion(f.cluster.sim, read);
    EXPECT_FALSE(out.status.ok());

    // A forced remote lookup no longer finds the name.
    auto t2 = f.clerkB.import("victim", 1, /*forceRemote=*/true);
    auto gone = runToCompletion(f.cluster.sim, t2);
    EXPECT_EQ(gone.status().code(), util::ErrorCode::kNotFound);
}

TEST(NameClerk, RevokeOfUnknownNameFails)
{
    NamesFixture f;
    auto t = f.clerkA.revoke("no.such");
    EXPECT_EQ(runToCompletion(f.cluster.sim, t).code(),
              util::ErrorCode::kNotFound);
}

TEST(NameClerk, NameCanBeReExportedAfterRevoke)
{
    NamesFixture f;
    auto e1 = f.exportOnA("cycle");
    ASSERT_TRUE(e1.ok());
    auto tr = f.clerkA.revoke("cycle");
    ASSERT_TRUE(runToCompletion(f.cluster.sim, tr).ok());
    auto e2 = f.exportOnA("cycle");
    ASSERT_TRUE(e2.ok());
    EXPECT_NE(e2.value().generation, e1.value().generation);

    auto t = f.clerkB.import("cycle", 1);
    auto imp = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(imp.ok());
    EXPECT_EQ(imp.value().generation, e2.value().generation);
}

// ----------------------------------------------------------------------
// Collisions and probe policies
// ----------------------------------------------------------------------

TEST(NameClerk, CollisionsResolveByProbing)
{
    // A tiny registry forces collisions among a handful of names.
    names::NameClerkParams tiny;
    tiny.buckets = 8;
    cluster::Cluster c({.names = {"a", "b"}});
    names::NameClerk clerkA(*c.engines[0], tiny);
    names::NameClerk clerkB(*c.engines[1], tiny);
    clerkA.addPeer(2);
    clerkB.addPeer(1);
    mem::Process &user = c.nodes[0]->spawnProcess("user");

    // Export six names into eight buckets: collisions guaranteed often.
    for (int i = 0; i < 6; ++i) {
        mem::Vaddr base = user.space().allocRegion(4096);
        auto t = clerkA.exportByName(&user, base, 4096, rmem::Rights::kAll,
                                     rmem::NotifyPolicy::kNever,
                                     "n" + std::to_string(i));
        ASSERT_TRUE(runToCompletion(c.sim, t).ok());
    }
    // Every name must be importable from B regardless of collisions.
    for (int i = 0; i < 6; ++i) {
        auto t = clerkB.import("n" + std::to_string(i), 1);
        auto imp = runToCompletion(c.sim, t);
        ASSERT_TRUE(imp.ok()) << "n" << i << ": "
                              << imp.status().toString();
    }
    // More reads than names implies multi-probe resolutions happened.
    EXPECT_GE(clerkB.stats().remoteProbes.value(), 6u);
}

TEST(NameClerk, ControlTransferPolicyResolves)
{
    names::NameClerkParams p;
    p.policy = names::ProbePolicy::kControlOnly;
    NamesFixture f(p);
    ASSERT_TRUE(f.exportOnA("ct.seg").ok());
    auto t = f.clerkB.import("ct.seg", 1);
    auto imp = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(imp.ok());
    EXPECT_EQ(f.clerkB.stats().controlTransfers.value(), 1u);
    EXPECT_EQ(f.clerkB.stats().remoteReads.value(), 0u);
    EXPECT_EQ(imp.value().size, 4096u);
}

TEST(NameClerk, ControlTransferAbsentName)
{
    names::NameClerkParams p;
    p.policy = names::ProbePolicy::kControlOnly;
    NamesFixture f(p);
    auto t = f.clerkB.import("ghost", 1);
    auto imp = runToCompletion(f.cluster.sim, t);
    EXPECT_EQ(imp.status().code(), util::ErrorCode::kNotFound);
}

TEST(NameClerk, ProbeThenControlFallsBackAfterBudget)
{
    names::NameClerkParams p;
    p.policy = names::ProbePolicy::kProbeThenControl;
    p.probeLimit = 2;
    p.buckets = 4; // dense: long probe chains
    cluster::Cluster c({.names = {"a", "b"}});
    names::NameClerk clerkA(*c.engines[0], p);
    names::NameClerk clerkB(*c.engines[1], p);
    clerkA.addPeer(2);
    clerkB.addPeer(1);
    mem::Process &user = c.nodes[0]->spawnProcess("user");
    for (int i = 0; i < 4; ++i) {
        mem::Vaddr base = user.space().allocRegion(4096);
        auto t = clerkA.exportByName(&user, base, 4096, rmem::Rights::kAll,
                                     rmem::NotifyPolicy::kNever,
                                     "f" + std::to_string(i));
        ASSERT_TRUE(runToCompletion(c.sim, t).ok());
    }
    // With the table full, some lookup exhausts its 2-probe budget and
    // succeeds via control transfer instead.
    for (int i = 0; i < 4; ++i) {
        auto t = clerkB.import("f" + std::to_string(i), 1, true);
        auto imp = runToCompletion(c.sim, t);
        ASSERT_TRUE(imp.ok());
    }
    EXPECT_GT(clerkB.stats().controlTransfers.value(), 0u);
}

TEST(NameClerk, RegistryFullReportsResource)
{
    names::NameClerkParams p;
    p.buckets = 2;
    cluster::Cluster c({.names = {"a", "b"}});
    names::NameClerk clerkA(*c.engines[0], p);
    mem::Process &user = c.nodes[0]->spawnProcess("user");
    util::Status last;
    for (int i = 0; i < 3; ++i) {
        mem::Vaddr base = user.space().allocRegion(4096);
        auto t = clerkA.exportByName(&user, base, 4096, rmem::Rights::kAll,
                                     rmem::NotifyPolicy::kNever,
                                     "r" + std::to_string(i));
        last = runToCompletion(c.sim, t).status();
    }
    EXPECT_EQ(last.code(), util::ErrorCode::kResource);
}

// ----------------------------------------------------------------------
// Refresh
// ----------------------------------------------------------------------

TEST(NameClerk, RefreshPurgesRevokedImports)
{
    NamesFixture f;
    ASSERT_TRUE(f.exportOnA("fresh").ok());
    auto t1 = f.clerkB.import("fresh", 1);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, t1).ok());

    auto tr = f.clerkA.revoke("fresh");
    ASSERT_TRUE(runToCompletion(f.cluster.sim, tr).ok());

    auto t2 = f.clerkB.refresh();
    runToCompletion(f.cluster.sim, t2);
    EXPECT_EQ(f.clerkB.stats().refreshPurges.value(), 1u);

    // The cache no longer serves the dead name.
    auto t3 = f.clerkB.import("fresh", 1);
    EXPECT_EQ(runToCompletion(f.cluster.sim, t3).status().code(),
              util::ErrorCode::kNotFound);
}

TEST(NameClerk, RefreshKeepsLiveImports)
{
    NamesFixture f;
    ASSERT_TRUE(f.exportOnA("alive").ok());
    auto t1 = f.clerkB.import("alive", 1);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, t1).ok());
    auto t2 = f.clerkB.refresh();
    runToCompletion(f.cluster.sim, t2);
    EXPECT_EQ(f.clerkB.stats().refreshPurges.value(), 0u);
    auto t3 = f.clerkB.import("alive", 1);
    EXPECT_TRUE(runToCompletion(f.cluster.sim, t3).ok());
    EXPECT_GE(f.clerkB.stats().cacheHits.value(), 1u);
}

TEST(NameClerk, RefreshDetectsGenerationChange)
{
    NamesFixture f;
    auto e1 = f.exportOnA("regen");
    ASSERT_TRUE(e1.ok());
    auto t1 = f.clerkB.import("regen", 1);
    ASSERT_TRUE(runToCompletion(f.cluster.sim, t1).ok());

    // Revoke and immediately re-export under the same name.
    auto tr = f.clerkA.revoke("regen");
    ASSERT_TRUE(runToCompletion(f.cluster.sim, tr).ok());
    auto e2 = f.exportOnA("regen");
    ASSERT_TRUE(e2.ok());

    auto t2 = f.clerkB.refresh();
    runToCompletion(f.cluster.sim, t2);
    // The stale cached generation was purged; a new import sees the
    // fresh generation.
    auto t3 = f.clerkB.import("regen", 1);
    auto imp = runToCompletion(f.cluster.sim, t3);
    ASSERT_TRUE(imp.ok());
    EXPECT_EQ(imp.value().generation, e2.value().generation);
}

// ----------------------------------------------------------------------
// Failure handling (§3.7)
// ----------------------------------------------------------------------

TEST(NameClerk, SilentPeerTimesOut)
{
    names::NameClerkParams p;
    p.readTimeout = sim::msec(5);
    NamesFixture f(p);
    ASSERT_TRUE(f.exportOnA("doomed").ok());
    // Node A's kernel goes silent ("crash").
    f.cluster.engineA.wire().setRmemHandler(
        [](net::NodeId, rmem::Message &&) {});
    auto t = f.clerkB.import("doomed", 1);
    auto imp = runToCompletion(f.cluster.sim, t);
    EXPECT_EQ(imp.status().code(), util::ErrorCode::kTimeout);
}

TEST(NameClerk, UnknownPeerRejected)
{
    NamesFixture f;
    auto t = f.clerkB.import("whatever", 99);
    auto imp = runToCompletion(f.cluster.sim, t);
    EXPECT_FALSE(imp.ok());
}

} // namespace
} // namespace remora
