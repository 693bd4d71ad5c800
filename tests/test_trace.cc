/**
 * @file
 * Workload and traffic-classifier tests (Tables 1a/1b machinery).
 */
#include <gtest/gtest.h>

#include "dfs/nfs_proto.h"
#include "trace/classifier.h"
#include "trace/mix.h"
#include "trace/workload.h"

namespace remora::trace {
namespace {

// ----------------------------------------------------------------------
// Mix
// ----------------------------------------------------------------------

TEST(Mix, PublishedTotalsMatchThePaper)
{
    EXPECT_EQ(paperMixTotal(), 28860744u);
    EXPECT_EQ(paperMix()[0].count, 8960671u); // GetAttr
    EXPECT_EQ(paperMix()[static_cast<size_t>(OpClass::kWrite)].count,
              109712u);
}

TEST(Mix, PercentagesSumToHundred)
{
    double total = 0;
    for (const MixRow &row : paperMix()) {
        total += paperMixPercent(row.cls);
    }
    EXPECT_NEAR(total, 100.0, 1e-9);
    // GetAttr and Lookup together are ~62% — the paper's key skew.
    EXPECT_NEAR(paperMixPercent(OpClass::kGetAttr) +
                    paperMixPercent(OpClass::kLookup),
                61.7, 0.5);
}

TEST(Mix, EveryClassHasAName)
{
    for (const MixRow &row : paperMix()) {
        EXPECT_STRNE(opClassName(row.cls), "Unknown");
    }
}

// ----------------------------------------------------------------------
// Classifier
// ----------------------------------------------------------------------

TEST(Classifier, NullPingIsPureControl)
{
    Traffic t = classifyOp(OpClass::kNullPing, {});
    EXPECT_EQ(t.dataBytes, 0u);
    EXPECT_GT(t.controlBytes, 0u);
}

TEST(Classifier, ControlGrowsSubLinearlyWithPayload)
{
    OpShape small;
    small.payloadBytes = 512;
    OpShape large;
    large.payloadBytes = 8192;
    Traffic ts = classifyOp(OpClass::kRead, small);
    Traffic tl = classifyOp(OpClass::kRead, large);
    // Data scales with the payload; control stays fixed.
    EXPECT_EQ(tl.dataBytes - ts.dataBytes, 8192u - 512u);
    EXPECT_EQ(tl.controlBytes, ts.controlBytes);
    EXPECT_LT(tl.ratio(), ts.ratio());
}

TEST(Classifier, FileHandleCountsAsControl)
{
    // GetAttr carries one fh; its control must include those 32 bytes.
    Traffic t = classifyOp(OpClass::kGetAttr, {});
    EXPECT_GE(t.controlBytes, 32u + 8u); // fh + both xids at minimum
}

TEST(Classifier, WriteIsTheLeastControlHeavyBulkOp)
{
    OpShape w;
    w.payloadBytes = 6000;
    double writeRatio = classifyOp(OpClass::kWrite, w).ratio();
    double getattrRatio = classifyOp(OpClass::kGetAttr, {}).ratio();
    EXPECT_LT(writeRatio, 0.05);
    EXPECT_GT(getattrRatio, 0.5);
}

TEST(Classifier, SizesEqualTheEncodedCallAndReply)
{
    // Control plus data is every byte of the exchange: the call and the
    // successful reply the file service encodes, and both xids.
    auto expect = [](OpClass cls, const OpShape &shape, size_t call,
                     size_t reply) {
        Traffic t = classifyOp(cls, shape);
        EXPECT_EQ(t.controlBytes + t.dataBytes, call + reply + 8)
            << opClassName(cls) << " payload " << shape.payloadBytes
            << " name " << shape.nameLen << " target " << shape.targetLen;
    };
    using dfs::encodeCall;
    using dfs::encodeReply;
    for (uint32_t nameLen : {1u, 5u, 12u, 13u}) {
        for (uint32_t payload : {512u, 1024u, 2048u, 4096u, 8192u}) {
            for (uint32_t targetLen : {1u, 24u, 25u}) {
                OpShape shape{payload, nameLen, targetLen};
                std::string name(nameLen, 'x');
                std::vector<uint8_t> bytes(payload, 0xab);
                expect(OpClass::kGetAttr, shape,
                       encodeCall(dfs::GetAttrArgs{}).size(),
                       encodeReply(dfs::FileAttr{}).size());
                expect(OpClass::kLookup, shape,
                       encodeCall(dfs::LookupArgs{{}, name}).size(),
                       encodeReply(dfs::LookupReply{}).size());
                expect(OpClass::kRead, shape,
                       encodeCall(dfs::ReadArgs{{}, 0, payload}).size(),
                       encodeReply(dfs::ReadRes{{}, bytes}).size());
                expect(OpClass::kNullPing, shape,
                       encodeCall(dfs::NullArgs{}).size(),
                       encodeReply(dfs::NullRes{}).size());
                expect(OpClass::kReadLink, shape,
                       encodeCall(dfs::ReadLinkArgs{}).size(),
                       encodeReply(dfs::ReadLinkRes{
                                       std::string(targetLen, 't')})
                           .size());
                // The server trims a listing to whole packed entries.
                std::vector<dfs::DirEntry> all(
                    payload, dfs::DirEntry{7, name});
                expect(OpClass::kReadDir, shape,
                       encodeCall(dfs::ReadDirArgs{{}, payload}).size(),
                       encodeReply(dfs::unpackDirEntries(
                                       dfs::packDirEntries(all), payload))
                           .size());
                expect(OpClass::kStatFs, shape,
                       encodeCall(dfs::StatFsArgs{}).size(),
                       encodeReply(dfs::FsStat{}).size());
                expect(OpClass::kWrite, shape,
                       encodeCall(dfs::WriteArgs{{}, 0, bytes}).size(),
                       encodeReply(dfs::FileAttr{}).size());
            }
        }
    }
}

TEST(Classifier, TrafficAccumulates)
{
    Traffic a{100, 400};
    Traffic b{50, 100};
    a += b;
    EXPECT_EQ(a.controlBytes, 150u);
    EXPECT_EQ(a.dataBytes, 500u);
    EXPECT_DOUBLE_EQ(a.ratio(), 0.3);
}

// ----------------------------------------------------------------------
// WorkloadGen
// ----------------------------------------------------------------------

TEST(Workload, DeterministicForAGivenSeed)
{
    WorkloadGen g1(7), g2(7);
    for (int i = 0; i < 1000; ++i) {
        Op a = g1.next();
        Op b = g2.next();
        EXPECT_EQ(a.cls, b.cls);
        EXPECT_EQ(a.bytes, b.bytes);
        EXPECT_EQ(a.fileIdx, b.fileIdx);
    }
}

TEST(Workload, DrawsFollowTheMix)
{
    WorkloadGen gen(11);
    TrafficSummary sum = gen.replay(200000);
    EXPECT_EQ(sum.totalOps, 200000u);
    for (const MixRow &row : paperMix()) {
        double expect = paperMixPercent(row.cls);
        double got = 100.0 *
                     static_cast<double>(
                         sum.opCount[static_cast<size_t>(row.cls)]) /
                     200000.0;
        EXPECT_NEAR(got, expect, 0.5)
            << "class " << opClassName(row.cls);
    }
}

TEST(Workload, SizesComeFromTheConfiguredTables)
{
    WorkloadGen gen(13);
    for (int i = 0; i < 20000; ++i) {
        Op op = gen.next();
        if (op.cls == OpClass::kRead) {
            bool known = false;
            for (auto [bytes, w] : kReadSizes) {
                (void)w;
                known = known || op.bytes == bytes;
            }
            EXPECT_TRUE(known) << "read size " << op.bytes;
        } else if (op.cls == OpClass::kWrite) {
            EXPECT_TRUE(op.bytes == 4096 || op.bytes == 8192);
        }
    }
}

TEST(Workload, PaperPopulationCarriesExactCounts)
{
    WorkloadGen gen(17);
    TrafficSummary sum = gen.replayPaperPopulation();
    EXPECT_EQ(sum.totalOps, paperMixTotal());
    for (const MixRow &row : paperMix()) {
        EXPECT_EQ(sum.opCount[static_cast<size_t>(row.cls)], row.count);
    }
    Traffic total = sum.total();
    // The calibrated reference points (EXPERIMENTS.md).
    EXPECT_NEAR(total.ratio(), 0.14, 0.015);
    EXPECT_NEAR(sum.perClass[static_cast<size_t>(OpClass::kWrite)].ratio(),
                0.01, 0.005);
}

TEST(Workload, BuildPaperFileSetShape)
{
    dfs::FileStore store;
    auto files = buildPaperFileSet(store, 30, 3);
    EXPECT_EQ(files.size(), 30u);
    for (auto fh : files) {
        auto attr = store.getattr(fh);
        ASSERT_TRUE(attr.ok());
        EXPECT_EQ(attr.value().type, dfs::FileType::kRegular);
        EXPECT_GT(attr.value().size, 0u);
    }
    // The canonical directories exist.
    EXPECT_TRUE(store.lookup(store.root(), "fonts").ok());
    EXPECT_TRUE(store.lookup(store.root(), "src").ok());
    EXPECT_TRUE(store.lookup(store.root(), "usr").ok());
}

TEST(Workload, ZipfSkewPrefersHotFiles)
{
    WorkloadGen gen(19, 64);
    std::vector<int> hits(64, 0);
    for (int i = 0; i < 50000; ++i) {
        ++hits[gen.next().fileIdx];
    }
    EXPECT_GT(hits[0], hits[32] * 4);
}

} // namespace
} // namespace remora::trace
