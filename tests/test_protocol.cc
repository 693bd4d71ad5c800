/**
 * @file
 * Wire-protocol tests: codec round trips across field sweeps, the
 * single-cell size budgets the design depends on, small/block selection
 * boundaries, and malformed-input rejection.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "net/cell.h"
#include "rmem/protocol.h"

namespace remora::rmem {
namespace {

template <typename T>
T
roundTrip(const Message &msg, size_t *consumed = nullptr)
{
    auto bytes = encodeMessage(msg);
    auto decoded = decodeMessage(bytes, consumed);
    EXPECT_TRUE(decoded.ok()) << decoded.status().toString();
    return std::get<T>(decoded.take());
}

// ----------------------------------------------------------------------
// Round trips
// ----------------------------------------------------------------------

TEST(Protocol, SmallWriteRoundTrip)
{
    WriteReq req;
    req.descriptor = 12;
    req.generation = 999;
    req.offset = 0x00abcdef; // within the 24-bit small-write range
    req.notify = true;
    req.data = {1, 2, 3, 4, 5};
    WriteReq out = roundTrip<WriteReq>(Message(req));
    EXPECT_EQ(out.descriptor, req.descriptor);
    EXPECT_EQ(out.generation, req.generation);
    EXPECT_EQ(out.offset, req.offset);
    EXPECT_EQ(out.notify, req.notify);
    EXPECT_EQ(out.data, req.data);
}

TEST(Protocol, BlockWriteRoundTrip)
{
    WriteReq req;
    req.descriptor = 200;
    req.generation = 0xffff;
    req.offset = 0x01000000; // past the small-write offset range
    req.data.assign(4096, 0x5c);
    EXPECT_EQ(messageType(Message(req)), MsgType::kWriteBlock);
    WriteReq out = roundTrip<WriteReq>(Message(req));
    EXPECT_EQ(out.offset, req.offset);
    EXPECT_EQ(out.data, req.data);
}

TEST(Protocol, ReadReqRoundTrip)
{
    ReadReq req;
    req.srcDescriptor = 3;
    req.generation = 17;
    req.srcOffset = 0xdeadbe00;
    req.dstDescriptor = 5;
    req.dstOffset = 0x00c0ffee;
    req.count = 4096;
    req.reqId = 0xabcd;
    req.notify = true;
    ReadReq out = roundTrip<ReadReq>(Message(req));
    EXPECT_EQ(out.srcDescriptor, req.srcDescriptor);
    EXPECT_EQ(out.generation, req.generation);
    EXPECT_EQ(out.srcOffset, req.srcOffset);
    EXPECT_EQ(out.dstDescriptor, req.dstDescriptor);
    EXPECT_EQ(out.dstOffset, req.dstOffset);
    EXPECT_EQ(out.count, req.count);
    EXPECT_EQ(out.reqId, req.reqId);
    EXPECT_EQ(out.notify, req.notify);
}

TEST(Protocol, ReadRespRoundTrip)
{
    ReadResp resp;
    resp.reqId = 77;
    resp.status = util::ErrorCode::kOk;
    resp.data.assign(40, 0x42);
    ReadResp out = roundTrip<ReadResp>(Message(resp));
    EXPECT_EQ(out.reqId, resp.reqId);
    EXPECT_EQ(out.status, resp.status);
    EXPECT_EQ(out.data, resp.data);
}

TEST(Protocol, CasReqRespRoundTrip)
{
    CasReq req;
    req.descriptor = 9;
    req.generation = 4;
    req.offset = 4096;
    req.oldValue = 0x11111111;
    req.newValue = 0x22222222;
    req.resultDescriptor = 2;
    req.resultOffset = 64;
    req.reqId = 301;
    CasReq outReq = roundTrip<CasReq>(Message(req));
    EXPECT_EQ(outReq.oldValue, req.oldValue);
    EXPECT_EQ(outReq.newValue, req.newValue);
    EXPECT_EQ(outReq.resultDescriptor, req.resultDescriptor);
    EXPECT_EQ(outReq.resultOffset, req.resultOffset);

    CasResp resp;
    resp.reqId = 301;
    resp.success = true;
    resp.observed = 0x11111111;
    CasResp outResp = roundTrip<CasResp>(Message(resp));
    EXPECT_EQ(outResp.reqId, resp.reqId);
    EXPECT_TRUE(outResp.success);
    EXPECT_EQ(outResp.observed, resp.observed);
}

TEST(Protocol, NakRoundTrip)
{
    Nak nak;
    nak.reqId = 42;
    nak.error = util::ErrorCode::kStaleGeneration;
    nak.originalType = MsgType::kReadReq;
    Nak out = roundTrip<Nak>(Message(nak));
    EXPECT_EQ(out.reqId, nak.reqId);
    EXPECT_EQ(out.error, nak.error);
    EXPECT_EQ(out.originalType, nak.originalType);
}

TEST(Protocol, RpcEnvelopeRoundTrip)
{
    RpcMsg msg;
    msg.xid = 0xfeedface;
    msg.isResponse = true;
    msg.body.assign(500, 0x3f);
    RpcMsg out = roundTrip<RpcMsg>(Message(msg));
    EXPECT_EQ(out.xid, msg.xid);
    EXPECT_TRUE(out.isResponse);
    EXPECT_EQ(out.body, msg.body);
}

// ----------------------------------------------------------------------
// The single-cell size budgets the design document promises
// ----------------------------------------------------------------------

TEST(ProtocolBudget, SmallWriteWith40BytesFitsOneCell)
{
    WriteReq req;
    req.offset = (1u << 24) - 41;
    req.data.assign(kSmallWriteMax, 0xee);
    EXPECT_EQ(messageType(Message(req)), MsgType::kWriteSmall);
    auto bytes = encodeMessage(Message(req));
    EXPECT_LE(bytes.size(), net::Cell::kPayloadBytes);
    EXPECT_EQ(bytes.size(), 8u + kSmallWriteMax); // 8-byte header
}

TEST(ProtocolBudget, ReadReqFitsOneCell)
{
    ReadReq req;
    req.srcOffset = 0xffffffff;
    req.dstOffset = 0xffffffff;
    req.count = 0xffff;
    req.reqId = 0xffff;
    auto bytes = encodeMessage(Message(req));
    EXPECT_LE(bytes.size(), net::Cell::kPayloadBytes);
}

TEST(ProtocolBudget, SmallReadRespWith40BytesFitsOneCell)
{
    ReadResp resp;
    resp.data.assign(40, 1);
    auto bytes = encodeMessage(Message(resp));
    EXPECT_LE(bytes.size(), net::Cell::kPayloadBytes);
}

TEST(ProtocolBudget, CasMessagesFitOneCell)
{
    CasReq req;
    req.offset = req.resultOffset = 0xffffffff;
    EXPECT_LE(encodeMessage(Message(req)).size(), net::Cell::kPayloadBytes);
    CasResp resp;
    EXPECT_LE(encodeMessage(Message(resp)).size(), net::Cell::kPayloadBytes);
    Nak nak;
    EXPECT_LE(encodeMessage(Message(nak)).size(), net::Cell::kPayloadBytes);
}

// ----------------------------------------------------------------------
// Small/block selection boundaries
// ----------------------------------------------------------------------

TEST(ProtocolBoundary, SizeSelectsWriteVariant)
{
    WriteReq req;
    req.data.assign(kSmallWriteMax, 0);
    EXPECT_EQ(messageType(Message(req)), MsgType::kWriteSmall);
    req.data.push_back(0);
    EXPECT_EQ(messageType(Message(req)), MsgType::kWriteBlock);
}

TEST(ProtocolBoundary, OffsetSelectsWriteVariant)
{
    WriteReq req;
    req.data.assign(8, 0);
    req.offset = (1u << 24) - 1;
    EXPECT_EQ(messageType(Message(req)), MsgType::kWriteSmall);
    req.offset = 1u << 24;
    EXPECT_EQ(messageType(Message(req)), MsgType::kWriteBlock);
    // Both variants still round-trip exactly.
    WriteReq out = roundTrip<WriteReq>(Message(req));
    EXPECT_EQ(out.offset, req.offset);
}

class WriteSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, size_t, bool>>
{};

TEST_P(WriteSweep, RoundTripsExactly)
{
    auto [offset, size, notify] = GetParam();
    WriteReq req;
    req.descriptor = 1;
    req.generation = 2;
    req.offset = offset;
    req.notify = notify;
    req.data.resize(size);
    for (size_t i = 0; i < size; ++i) {
        req.data[i] = static_cast<uint8_t>(i * 31);
    }
    WriteReq out = roundTrip<WriteReq>(Message(req));
    EXPECT_EQ(out.offset, offset);
    EXPECT_EQ(out.notify, notify);
    EXPECT_EQ(out.data, req.data);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WriteSweep,
    ::testing::Combine(::testing::Values<uint32_t>(0, 39, 16 * 1024 * 1024,
                                                   0xfffff000),
                       ::testing::Values<size_t>(0, 1, 40, 41, 4096, 60000),
                       ::testing::Bool()));

// ----------------------------------------------------------------------
// Malformed inputs
// ----------------------------------------------------------------------

TEST(ProtocolMalformed, TruncatedMessagesRejected)
{
    WriteReq req;
    req.data.assign(20, 7);
    auto bytes = encodeMessage(Message(req));
    for (size_t cut : {size_t{0}, size_t{1}, size_t{5}, bytes.size() - 1}) {
        auto r = decodeMessage(
            std::span<const uint8_t>(bytes.data(), cut));
        EXPECT_FALSE(r.ok()) << "cut at " << cut << " decoded";
    }
}

TEST(ProtocolMalformed, UnknownTypeRejected)
{
    std::vector<uint8_t> junk = {0x0f, 1, 2, 3, 4, 5, 6, 7};
    auto r = decodeMessage(junk);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kMalformed);
}

TEST(ProtocolMalformed, CountBeyondBufferRejected)
{
    // Hand-craft a small write whose count exceeds the payload.
    std::vector<uint8_t> bytes = {0x01, 0x00, 0x00, 0x00,
                                  0x00, 0x00, 0x00, 0xff};
    auto r = decodeMessage(bytes);
    EXPECT_FALSE(r.ok());
}

TEST(Protocol, ConsumedReportsMeaningfulBytes)
{
    CasResp resp;
    size_t consumed = 0;
    auto bytes = encodeMessage(Message(resp));
    // Pad to a full cell, as a raw cell would be.
    bytes.resize(net::Cell::kPayloadBytes, 0xAA);
    auto r = decodeMessage(bytes, &consumed);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(consumed, 8u); // type + reqId + success + observed
}

// ----------------------------------------------------------------------
// Golden bytes: one fixed encoding of every message type
// ----------------------------------------------------------------------

TEST(Protocol, EveryMessageTypeKeepsItsBytes)
{
    using test::bytesOf;
    using test::hexOf;
    struct Golden
    {
        MsgType type;
        Message msg;
        const char *hex;
    };
    const Golden cases[] = {
        {MsgType::kWriteSmall,
         WriteReq{.descriptor = 7, .generation = 0x1234, .offset = 0xabcdef,
                  .notify = true, .data = {0xde, 0xad, 0xbe, 0xef}},
         "11073412efcdab04deadbeef"},
        {MsgType::kWriteBlock,
         WriteReq{.descriptor = 9, .generation = 0x0102,
                  .offset = 0x01020304, .data = {1, 2, 3, 4, 5}},
         "020902010403020105000102030405"},
        {MsgType::kReadReq,
         ReadReq{.srcDescriptor = 3, .generation = 0x0a0b,
                 .srcOffset = 0x11223344, .dstDescriptor = 4,
                 .dstOffset = 0x55667788, .count = 0x99aa, .reqId = 0xbbcc,
                 .notify = true},
         "13030b0a443322110488776655aa99ccbb"},
        {MsgType::kReadResp,
         ReadResp{.reqId = 0x1357, .status = util::ErrorCode::kOutOfBounds,
                  .data = {0x42, 0x43}},
         "0457130302004243"},
        {MsgType::kCasReq,
         CasReq{.descriptor = 5, .generation = 6, .offset = 0x100,
                .oldValue = 0xcafef00d, .newValue = 0x8badf00d,
                .resultDescriptor = 2, .resultOffset = 0x40, .reqId = 0x2468,
                .notify = true},
         "15050600000100000df0feca0df0ad8b02400000006824"},
        {MsgType::kCasResp,
         CasResp{.reqId = 0x2468, .success = true, .observed = 0xcafef00d},
         "066824010df0feca"},
        {MsgType::kNak,
         Nak{.reqId = 0x0bad, .error = util::ErrorCode::kStaleGeneration,
             .originalType = MsgType::kCasReq},
         "07ad0b0205"},
        {MsgType::kRpc,
         RpcMsg{.xid = 0x01020304, .isResponse = true,
                .idemKey = 0x1122334455667788, .body = {9, 8, 7}},
         "6804030201887766554433221103000000090807"},
        {MsgType::kVectorOp,
         VectorReq{.reqId = 0x4321,
                   .ops = {{VecOpKind::kWrite, 1, 2, 3, true,
                            {0xa1, 0xa2, 0xa3}, 0, 0, 0},
                           {VecOpKind::kRead, 4, 5, 6, false, {}, 0x30, 0, 0},
                           {VecOpKind::kCas, 7, 8, 12, false, {}, 0,
                            0x01020304, 0x05060708}}},
         "0921430380010200030000000300a1a2a30104050006000000300002"
         "0708000c0000000403020108070605"},
        {MsgType::kVectorResp,
         VectorResp{.reqId = 0x4321,
                    .results = {{util::ErrorCode::kOk, VecOpKind::kWrite, {},
                                 false, 0},
                                {util::ErrorCode::kOk, VecOpKind::kRead,
                                 {5, 6}, false, 0},
                                {util::ErrorCode::kOk, VecOpKind::kCas, {},
                                 true, 0x77},
                                {util::ErrorCode::kBadDescriptor,
                                 VecOpKind::kRead, {}, false, 0}}},
         "0a214304000000010200050600827700000001010000"},
        {MsgType::kSeqData,
         SeqMsg{.seq = 0x01000002, .innerCrc = 0xdeadbeef, .lastFrag = 0,
                .inner = {0x11, 0x22, 0x33}},
         "0b02000001efbeadde0003000000112233"},
        {MsgType::kAck, AckMsg{.cumSeq = 0x00c0ffee}, "0ceeffc000b40a8662"},
    };
    for (const Golden &g : cases) {
        SCOPED_TRACE(msgTypeName(g.type));
        EXPECT_EQ(messageType(g.msg), g.type);
        std::vector<uint8_t> bytes = encodeMessage(g.msg);
        EXPECT_EQ(hexOf(bytes), g.hex);
        // The golden bytes decode, whole, to a message that keeps them.
        size_t consumed = 0;
        auto back = decodeMessage(bytesOf(g.hex), &consumed);
        ASSERT_TRUE(back.ok()) << back.status().toString();
        EXPECT_EQ(consumed, bytes.size());
        EXPECT_EQ(hexOf(encodeMessage(back.value())), g.hex);
    }
}

} // namespace
} // namespace remora::rmem
