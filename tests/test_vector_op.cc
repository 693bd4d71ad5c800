/**
 * @file
 * Vectored meta-instructions: wire protocol round-trips, batch
 * building, end-to-end writev/readv across two nodes, single-frame
 * accounting, per-batch validation caching, and doorbell coalescing.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "rmem/engine.h"
#include "rmem/notification.h"
#include "rmem/protocol.h"
#include "rmem/vector_op.h"

namespace remora {
namespace {

using test::TwoNodeCluster;
using test::makeSegment;
using test::runToCompletion;

// ----------------------------------------------------------------------
// Wire protocol
// ----------------------------------------------------------------------

TEST(VectorProtocol, RequestRoundTripPreservesEverySubOp)
{
    rmem::VectorReq req;
    req.reqId = 0x1234;

    rmem::VectorSubOp w;
    w.kind = rmem::VecOpKind::kWrite;
    w.descriptor = 3;
    w.generation = 9;
    w.offset = 64;
    w.notify = true;
    w.data = {1, 2, 3, 4, 5};
    req.ops.push_back(w);

    rmem::VectorSubOp r;
    r.kind = rmem::VecOpKind::kRead;
    r.descriptor = 4;
    r.generation = 2;
    r.offset = 4096;
    r.count = 128;
    req.ops.push_back(r);

    rmem::VectorSubOp c;
    c.kind = rmem::VecOpKind::kCas;
    c.descriptor = 5;
    c.generation = 1;
    c.offset = 16;
    c.oldValue = 0xAABBCCDD;
    c.newValue = 0x11223344;
    req.ops.push_back(c);

    std::vector<uint8_t> bytes = rmem::encodeMessage(rmem::Message(req));
    EXPECT_EQ(bytes.size(), rmem::encodedVectorSize(req));
    // The worst-case response carries each sub-op's full result.
    rmem::VectorResp resp;
    for (const rmem::VectorSubOp &op : req.ops) {
        rmem::VectorSubResult res;
        res.kind = op.kind;
        res.data.resize(op.kind == rmem::VecOpKind::kRead ? op.count : 0);
        resp.results.push_back(res);
    }
    EXPECT_EQ(rmem::encodeMessage(rmem::Message(resp)).size(),
              rmem::encodedVectorRespSize(req));

    auto decoded = rmem::decodeMessage(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    ASSERT_EQ(rmem::messageType(decoded.value()), rmem::MsgType::kVectorOp);
    const auto &out = std::get<rmem::VectorReq>(decoded.value());
    EXPECT_EQ(out.reqId, 0x1234);
    ASSERT_EQ(out.ops.size(), 3u);
    EXPECT_EQ(out.ops[0].kind, rmem::VecOpKind::kWrite);
    EXPECT_EQ(out.ops[0].descriptor, 3);
    EXPECT_EQ(out.ops[0].generation, 9);
    EXPECT_EQ(out.ops[0].offset, 64u);
    EXPECT_TRUE(out.ops[0].notify);
    EXPECT_EQ(out.ops[0].data, w.data);
    EXPECT_EQ(out.ops[1].kind, rmem::VecOpKind::kRead);
    EXPECT_FALSE(out.ops[1].notify);
    EXPECT_EQ(out.ops[1].count, 128);
    EXPECT_EQ(out.ops[2].kind, rmem::VecOpKind::kCas);
    EXPECT_EQ(out.ops[2].oldValue, 0xAABBCCDDu);
    EXPECT_EQ(out.ops[2].newValue, 0x11223344u);
}

TEST(VectorProtocol, ResponseRoundTripPreservesResults)
{
    rmem::VectorResp resp;
    resp.reqId = 77;

    rmem::VectorSubResult wr;
    wr.kind = rmem::VecOpKind::kWrite;
    resp.results.push_back(wr);

    rmem::VectorSubResult rd;
    rd.kind = rmem::VecOpKind::kRead;
    rd.data = {9, 8, 7};
    resp.results.push_back(rd);

    rmem::VectorSubResult cs;
    cs.kind = rmem::VecOpKind::kCas;
    cs.success = true;
    cs.observed = 0xDEADBEEF;
    resp.results.push_back(cs);

    rmem::VectorSubResult bad;
    bad.kind = rmem::VecOpKind::kRead;
    bad.status = util::ErrorCode::kBadDescriptor;
    resp.results.push_back(bad);

    std::vector<uint8_t> bytes = rmem::encodeMessage(rmem::Message(resp));
    auto decoded = rmem::decodeMessage(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    ASSERT_EQ(rmem::messageType(decoded.value()),
              rmem::MsgType::kVectorResp);
    const auto &out = std::get<rmem::VectorResp>(decoded.value());
    EXPECT_EQ(out.reqId, 77);
    ASSERT_EQ(out.results.size(), 4u);
    EXPECT_EQ(out.results[0].status, util::ErrorCode::kOk);
    EXPECT_EQ(out.results[1].data, rd.data);
    EXPECT_TRUE(out.results[2].success);
    EXPECT_EQ(out.results[2].observed, 0xDEADBEEFu);
    EXPECT_EQ(out.results[3].status, util::ErrorCode::kBadDescriptor);
    EXPECT_TRUE(out.results[3].data.empty());
}

TEST(VectorProtocol, TruncatedRequestIsMalformed)
{
    rmem::VectorReq req;
    req.reqId = 1;
    rmem::VectorSubOp w;
    w.kind = rmem::VecOpKind::kWrite;
    w.data = {1, 2, 3, 4, 5, 6, 7, 8};
    req.ops.push_back(w);
    std::vector<uint8_t> bytes = rmem::encodeMessage(rmem::Message(req));
    for (size_t cut = 1; cut < bytes.size(); ++cut) {
        std::vector<uint8_t> chopped(bytes.begin(), bytes.end() - cut);
        auto decoded = rmem::decodeMessage(chopped);
        EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    }
}

TEST(VectorProtocol, BadSubOpKindIsMalformed)
{
    rmem::VectorReq req;
    req.reqId = 1;
    rmem::VectorSubOp c;
    c.kind = rmem::VecOpKind::kCas;
    req.ops.push_back(c);
    std::vector<uint8_t> bytes = rmem::encodeMessage(rmem::Message(req));
    bytes[4] = 0x03; // kind bits 0b11: no such sub-op
    auto decoded = rmem::decodeMessage(bytes);
    EXPECT_FALSE(decoded.ok());
}

TEST(VectorProtocol, DistinctValidationKeysCollapseDuplicates)
{
    std::vector<rmem::VectorSubOp> ops(5);
    for (auto &op : ops) {
        op.kind = rmem::VecOpKind::kWrite;
        op.descriptor = 2;
        op.generation = 1;
    }
    EXPECT_EQ(rmem::distinctValidationKeys(ops), 1u);
    ops[3].kind = rmem::VecOpKind::kRead; // different rights
    ops[4].descriptor = 6;                // different slot
    EXPECT_EQ(rmem::distinctValidationKeys(ops), 3u);
}

// ----------------------------------------------------------------------
// BatchBuilder admission
// ----------------------------------------------------------------------

TEST(BatchBuilder, RejectsCrossNodeAndRightsAndBounds)
{
    TwoNodeCluster c;
    rmem::BatchBuilder b(c.engineA);

    rmem::ImportedSegment onB{2, 1, 1, 4096, rmem::Rights::kWrite};
    rmem::ImportedSegment onA{1, 1, 1, 4096, rmem::Rights::kWrite};
    rmem::ImportedSegment readOnly{2, 2, 1, 4096, rmem::Rights::kRead};

    EXPECT_TRUE(
        b.addWrite({onB, 0, std::vector<uint8_t>(16, 1), false}).ok());
    // Second target node: one batch addresses one node.
    auto s = b.addWrite({onA, 0, std::vector<uint8_t>(16, 1), false});
    EXPECT_EQ(s.code(), util::ErrorCode::kInvalidArgument);
    // Missing write right.
    s = b.addWrite({readOnly, 0, std::vector<uint8_t>(16, 1), false});
    EXPECT_EQ(s.code(), util::ErrorCode::kAccessDenied);
    // Out of bounds.
    s = b.addWrite({onB, 4090, std::vector<uint8_t>(16, 1), false});
    EXPECT_EQ(s.code(), util::ErrorCode::kOutOfBounds);
    EXPECT_EQ(b.size(), 1u);
}

TEST(BatchBuilder, EnforcesFrameBudgetAndOpCount)
{
    TwoNodeCluster c;
    rmem::BatchBuilder b(c.engineA);
    rmem::ImportedSegment onB{2, 1, 1, 1 << 20, rmem::Rights::kWrite};

    // Frame budget: huge payloads stop fitting long before op count.
    util::Status s;
    size_t added = 0;
    for (;;) {
        s = b.addWrite(
            {onB, 0, std::vector<uint8_t>(16000, 0xAB), false});
        if (!s.ok()) {
            break;
        }
        ++added;
    }
    EXPECT_EQ(s.code(), util::ErrorCode::kResource);
    EXPECT_EQ(added, 3u); // 3 * ~16KB fits under kBlockDataMax, 4 don't

    // Op-count cap with tiny ops.
    rmem::BatchBuilder b2(c.engineA);
    for (size_t i = 0; i < rmem::kMaxVectorOps; ++i) {
        ASSERT_TRUE(
            b2.addWrite({onB, 0, std::vector<uint8_t>(4, 1), false}).ok());
    }
    s = b2.addWrite({onB, 0, std::vector<uint8_t>(4, 1), false});
    EXPECT_EQ(s.code(), util::ErrorCode::kResource);
}

TEST(BatchBuilder, ResponseBudgetCountsTheResponseHeader)
{
    // The builder admits a READ only if the whole response, its header
    // included, fits one frame: the largest READ it admits issues and
    // completes, and one a byte larger is refused when it is added.
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto remote = makeSegment(c.engineB, server, 65536);
    auto local = makeSegment(c.engineA, client, 65536);
    auto read = [&](size_t count) {
        rmem::BatchBuilder::Read op;
        op.src = remote;
        op.dstSeg = local.descriptor;
        op.count = static_cast<uint16_t>(count);
        return op;
    };
    size_t largest = rmem::kBlockDataMax;
    while (!rmem::BatchBuilder(c.engineA).addRead(read(largest)).ok()) {
        --largest;
    }

    rmem::BatchBuilder b(c.engineA);
    util::Status over = b.addRead(read(largest + 1));
    EXPECT_EQ(over.code(), util::ErrorCode::kResource);
    EXPECT_EQ(over.message(), "vector response exceeds frame budget");
    ASSERT_TRUE(b.addRead(read(largest)).ok());
    auto task = b.issue();
    rmem::VectorOutcome out = runToCompletion(c.sim, task);
    ASSERT_TRUE(out.status.ok()) << out.status.toString();
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_EQ(out.results[0].status, util::ErrorCode::kOk);
    EXPECT_EQ(out.results[0].data.size(), largest);
}

// ----------------------------------------------------------------------
// End-to-end meta-instructions
// ----------------------------------------------------------------------

TEST(VectorOps, WritevDepositsAllSubOpsInOneFrame)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(8192);
    auto seg = c.engineB.exportSegment(server, base, 8192,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "data");
    ASSERT_TRUE(seg.ok());

    uint64_t sentBefore = c.engineA.wire().messagesSent();
    std::vector<rmem::BatchBuilder::Write> ops;
    for (uint32_t i = 0; i < 4; ++i) {
        ops.push_back({seg.value(), i * 1024,
                       std::vector<uint8_t>(64, static_cast<uint8_t>(i + 1)),
                       false});
    }
    auto task = c.engineA.writev(std::move(ops));
    util::Status s = runToCompletion(c.sim, task);
    EXPECT_TRUE(s.ok()) << s.toString();
    c.sim.run();

    // ONE wire message carried all four sub-ops.
    EXPECT_EQ(c.engineA.wire().messagesSent() - sentBefore, 1u);
    EXPECT_EQ(c.engineA.stats().vectorsIssued.value(), 1u);
    EXPECT_EQ(c.engineA.stats().vectorSubOps.value(), 4u);
    EXPECT_EQ(c.engineB.stats().vectorServed.value(), 1u);
    EXPECT_EQ(c.engineB.stats().vectorSubOpsServed.value(), 4u);
    for (uint32_t i = 0; i < 4; ++i) {
        std::vector<uint8_t> check(64);
        ASSERT_TRUE(server.space().read(base + i * 1024, check).ok());
        EXPECT_EQ(check, std::vector<uint8_t>(64, static_cast<uint8_t>(
                                                      i + 1)));
    }
}

TEST(VectorOps, ReadvGathersAndDepositsLocally)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(8192);
    for (uint32_t i = 0; i < 4; ++i) {
        std::vector<uint8_t> content(100, static_cast<uint8_t>(0x10 + i));
        ASSERT_TRUE(server.space().write(base + i * 2048, content).ok());
    }
    auto seg = c.engineB.exportSegment(server, base, 8192,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "data");
    ASSERT_TRUE(seg.ok());

    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);

    uint64_t sentA = c.engineA.wire().messagesSent();
    uint64_t sentB = c.engineB.wire().messagesSent();
    std::vector<rmem::BatchBuilder::Read> ops;
    for (uint32_t i = 0; i < 4; ++i) {
        rmem::BatchBuilder::Read op;
        op.src = seg.value();
        op.srcOff = i * 2048;
        op.dstSeg = local.descriptor;
        op.dstOff = i * 256;
        op.count = 100;
        ops.push_back(op);
    }
    auto task = c.engineA.readv(std::move(ops));
    rmem::VectorOutcome out = runToCompletion(c.sim, task);
    ASSERT_TRUE(out.status.ok()) << out.status.toString();
    c.sim.run();

    // One request frame out, one response frame back.
    EXPECT_EQ(c.engineA.wire().messagesSent() - sentA, 1u);
    EXPECT_EQ(c.engineB.wire().messagesSent() - sentB, 1u);
    ASSERT_EQ(out.results.size(), 4u);
    auto *desc = c.engineA.descriptor(local.descriptor);
    ASSERT_NE(desc, nullptr);
    for (uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(out.results[i].status, util::ErrorCode::kOk);
        std::vector<uint8_t> want(100, static_cast<uint8_t>(0x10 + i));
        EXPECT_EQ(out.results[i].data, want);
        std::vector<uint8_t> deposited(100);
        ASSERT_TRUE(
            client.space().read(desc->base + i * 256, deposited).ok());
        EXPECT_EQ(deposited, want);
    }
    // 4 sub-ops on one (slot, generation, rights) key: 3 cache hits.
    EXPECT_EQ(c.engineB.stats().vectorValidateHits.value(), 3u);
}

TEST(VectorOps, MixedBatchCarriesWritesAndReads)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    std::vector<uint8_t> content(32, 0x5A);
    ASSERT_TRUE(server.space().write(base + 512, content).ok());
    auto seg = c.engineB.exportSegment(server, base, 4096,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "mix");
    ASSERT_TRUE(seg.ok());

    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);

    rmem::BatchBuilder b(c.engineA);
    ASSERT_TRUE(
        b.addWrite({seg.value(), 0, std::vector<uint8_t>(16, 0xEE), false})
            .ok());
    ASSERT_TRUE(
        b.addRead({seg.value(), 512, local.descriptor, 0, 32, false}).ok());
    ASSERT_TRUE(
        b.addWrite({seg.value(), 64, std::vector<uint8_t>(8, 0xDD), false})
            .ok());
    ASSERT_TRUE(
        b.addRead({seg.value(), 0, local.descriptor, 64, 16, false}).ok());
    EXPECT_EQ(b.size(), 4u);
    auto task = b.issue();
    rmem::VectorOutcome out = runToCompletion(c.sim, task);
    ASSERT_TRUE(out.status.ok()) << out.status.toString();
    c.sim.run();

    // Sub-ops apply in issue order: the last read sees the first write.
    ASSERT_EQ(out.results.size(), 4u);
    EXPECT_EQ(out.results[0].kind, rmem::VecOpKind::kWrite);
    EXPECT_EQ(out.results[1].kind, rmem::VecOpKind::kRead);
    EXPECT_EQ(out.results[1].data, content);
    EXPECT_EQ(out.results[2].kind, rmem::VecOpKind::kWrite);
    EXPECT_EQ(out.results[3].data, std::vector<uint8_t>(16, 0xEE));
    std::vector<uint8_t> applied(16);
    ASSERT_TRUE(server.space().read(base + 0, applied).ok());
    EXPECT_EQ(applied, std::vector<uint8_t>(16, 0xEE));
    std::vector<uint8_t> second(8);
    ASSERT_TRUE(server.space().read(base + 64, second).ok());
    EXPECT_EQ(second, std::vector<uint8_t>(8, 0xDD));
    // Both reads were deposited at their local offsets.
    auto *desc = c.engineA.descriptor(local.descriptor);
    std::vector<uint8_t> first(32);
    ASSERT_TRUE(client.space().read(desc->base + 0, first).ok());
    EXPECT_EQ(first, content);
    std::vector<uint8_t> landed(16);
    ASSERT_TRUE(client.space().read(desc->base + 64, landed).ok());
    EXPECT_EQ(landed, std::vector<uint8_t>(16, 0xEE));
    // The builder resets after issue and can be reused.
    EXPECT_TRUE(b.empty());
}

TEST(VectorOps, EmptyBatchResolvesWithoutWire)
{
    TwoNodeCluster c;
    uint64_t sent = c.engineA.wire().messagesSent();
    auto task = c.engineA.writev({});
    util::Status s = runToCompletion(c.sim, task);
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(c.engineA.wire().messagesSent(), sent);
    EXPECT_EQ(c.engineA.stats().vectorsIssued.value(), 0u);
}

TEST(VectorOps, RevokedSegmentFailsPerSubOpNotWholeBatch)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    std::vector<uint8_t> content(8, 0x77);
    ASSERT_TRUE(server.space().write(base, content).ok());
    auto live = c.engineB.exportSegment(server, base, 4096,
                                        rmem::Rights::kAll,
                                        rmem::NotifyPolicy::kNever, "live");
    ASSERT_TRUE(live.ok());

    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);

    // A read against a stale generation travels with a valid one.
    rmem::ImportedSegment stale = live.value();
    stale.generation = static_cast<rmem::Generation>(stale.generation + 1);

    std::vector<rmem::BatchBuilder::Read> ops;
    rmem::BatchBuilder::Read ok;
    ok.src = live.value();
    ok.srcOff = 0;
    ok.dstSeg = local.descriptor;
    ok.dstOff = 0;
    ok.count = 8;
    ops.push_back(ok);
    rmem::BatchBuilder::Read bad = ok;
    bad.src = stale;
    bad.dstOff = 64;
    ops.push_back(bad);

    auto task = c.engineA.readv(std::move(ops));
    rmem::VectorOutcome out = runToCompletion(c.sim, task);
    ASSERT_TRUE(out.status.ok()) << out.status.toString();
    ASSERT_EQ(out.results.size(), 2u);
    EXPECT_EQ(out.results[0].status, util::ErrorCode::kOk);
    EXPECT_EQ(out.results[0].data, content);
    EXPECT_NE(out.results[1].status, util::ErrorCode::kOk);
}

TEST(VectorOps, PureWriteBatchAgainstRevokedSlotNaksOnce)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    auto seg = c.engineB.exportSegment(server, base, 4096,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "gone");
    ASSERT_TRUE(seg.ok());
    ASSERT_TRUE(c.engineB.revokeSegment(seg.value().descriptor).ok());

    std::vector<rmem::BatchBuilder::Write> ops;
    for (int i = 0; i < 3; ++i) {
        ops.push_back({seg.value(), static_cast<uint32_t>(i * 16),
                       std::vector<uint8_t>(8, 1), false});
    }
    auto task = c.engineA.writev(std::move(ops));
    util::Status s = runToCompletion(c.sim, task);
    // Pure-write batches complete at network accept; the rejection
    // arrives as one NAK for the whole frame.
    EXPECT_TRUE(s.ok());
    c.sim.run();
    EXPECT_EQ(c.engineB.stats().naksSent.value(), 1u);
    EXPECT_EQ(c.engineA.stats().naksReceived.value(), 1u);
}

// ----------------------------------------------------------------------
// Doorbell coalescing
// ----------------------------------------------------------------------

TEST(VectorOps, BatchNotifyPostsOneDoorbell)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    auto seg = c.engineB.exportSegment(server, base, 4096,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kConditional,
                                       "notified");
    ASSERT_TRUE(seg.ok());
    size_t delivered = 0;
    c.engineB.channel(seg.value().descriptor)
        ->setSignalHandler(
            [&delivered](const rmem::Notification &) { ++delivered; });

    auto &cpuB = c.nodeB.cpu();

    // Scalar baseline: 4 notified writes ring 4 doorbells.
    sim::Duration ctBefore =
        cpuB.busyIn(sim::CpuCategory::kControlTransfer);
    for (uint32_t i = 0; i < 4; ++i) {
        auto w = c.engineA.write(seg.value(), i * 64,
                                 std::vector<uint8_t>(16, 1), true);
        runToCompletion(c.sim, w);
    }
    c.sim.run();
    sim::Duration scalarCt =
        cpuB.busyIn(sim::CpuCategory::kControlTransfer) - ctBefore;
    EXPECT_EQ(delivered, 4u);

    // Vectored: 4 notified writes to the same channel, ONE doorbell.
    delivered = 0;
    ctBefore = cpuB.busyIn(sim::CpuCategory::kControlTransfer);
    std::vector<rmem::BatchBuilder::Write> ops;
    for (uint32_t i = 0; i < 4; ++i) {
        ops.push_back({seg.value(), i * 64, std::vector<uint8_t>(16, 2),
                       true});
    }
    auto task = c.engineA.writev(std::move(ops));
    ASSERT_TRUE(runToCompletion(c.sim, task).ok());
    c.sim.run();
    sim::Duration vectorCt =
        cpuB.busyIn(sim::CpuCategory::kControlTransfer) - ctBefore;

    // Every record still reaches the handler, but the dispatch cost is
    // charged once per batch instead of once per record.
    EXPECT_EQ(delivered, 4u);
    EXPECT_EQ(c.engineB.stats().vectorDoorbells.value(), 1u);
    EXPECT_EQ(scalarCt, 4 * vectorCt);
    EXPECT_EQ(c.engineB.stats().notificationsPosted.value(), 8u);
}

TEST(VectorOps, ReaderSideNotifyCoalescesAcrossReadSubOps)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    auto seg = c.engineB.exportSegment(server, base, 4096,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "src");
    ASSERT_TRUE(seg.ok());

    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096,
                             rmem::Rights::kAll,
                             rmem::NotifyPolicy::kConditional);
    size_t delivered = 0;
    c.engineA.channel(local.descriptor)
        ->setSignalHandler(
            [&delivered](const rmem::Notification &) { ++delivered; });

    std::vector<rmem::BatchBuilder::Read> ops;
    for (uint32_t i = 0; i < 3; ++i) {
        rmem::BatchBuilder::Read op;
        op.src = seg.value();
        op.srcOff = i * 128;
        op.dstSeg = local.descriptor;
        op.dstOff = i * 128;
        op.count = 32;
        op.notify = true;
        ops.push_back(op);
    }
    auto task = c.engineA.readv(std::move(ops));
    ASSERT_TRUE(runToCompletion(c.sim, task).status.ok());
    c.sim.run();

    // All three deposit notifications arrive through one doorbell.
    EXPECT_EQ(delivered, 3u);
    EXPECT_EQ(c.engineA.stats().vectorDoorbells.value(), 1u);
}

} // namespace
} // namespace remora
