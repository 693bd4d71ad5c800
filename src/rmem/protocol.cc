#include "rmem/protocol.h"

#include "util/bytes.h"
#include "util/crc.h"
#include "util/panic.h"

namespace remora::rmem {

namespace {

/** Flags packed into the high nibble of the first octet. */
constexpr uint8_t kFlagNotify = 0x10;
constexpr uint8_t kFlagRpcResponse = 0x20;
/** RPC request carries an 8-byte idempotency key after the xid. */
constexpr uint8_t kFlagRpcIdem = 0x40;

/** The guard word an ack carries: CRC-32 of cumSeq's four LE bytes. */
uint32_t
ackGuard(uint32_t cumSeq)
{
    uint8_t seqBytes[4] = {
        static_cast<uint8_t>(cumSeq),
        static_cast<uint8_t>(cumSeq >> 8),
        static_cast<uint8_t>(cumSeq >> 16),
        static_cast<uint8_t>(cumSeq >> 24),
    };
    return util::crc32Ieee(seqBytes);
}

/** @p msg's M alternative: the one it holds, or a fresh one to decode. */
template <typename M, typename Io, typename Msg>
auto &
alt(Io &, Msg &msg)
{
    if constexpr (Io::kDecoding) {
        return msg.template emplace<M>();
    } else {
        return std::get<M>(msg);
    }
}

/**
 * Every message: the first octet (type in the low nibble, flags above
 * it), then the fields its type carries. @p first is the octet on the
 * wire when decoding, the type alone when encoding; each case sets or
 * reads its flag bits before the octet itself goes through @p io.
 */
template <typename Io, typename Msg>
void
layout(Io &io, uint8_t first, Msg &msg)
{
    auto type = static_cast<MsgType>(first & 0x0f);
    switch (type) {
      case MsgType::kWriteSmall:
      case MsgType::kWriteBlock: {
        auto &m = alt<WriteReq>(io, msg);
        io.flag(first, m.notify, kFlagNotify);
        io.u8(first);
        io.u8(m.descriptor);
        io.u16(m.generation);
        if (type == MsgType::kWriteSmall) {
            io.u24(m.offset);
            io.bytes8(m.data);
        } else {
            if constexpr (!Io::kDecoding) {
                REMORA_ASSERT(m.data.size() <= kBlockDataMax);
            }
            io.u32(m.offset);
            io.bytes16(m.data);
        }
        return;
      }
      case MsgType::kReadReq: {
        auto &m = alt<ReadReq>(io, msg);
        io.flag(first, m.notify, kFlagNotify);
        io.u8(first);
        io.u8(m.srcDescriptor);
        io.u16(m.generation);
        io.u32(m.srcOffset);
        io.u8(m.dstDescriptor);
        io.u32(m.dstOffset);
        io.u16(m.count);
        io.u16(m.reqId);
        return;
      }
      case MsgType::kReadResp: {
        auto &m = alt<ReadResp>(io, msg);
        if constexpr (!Io::kDecoding) {
            REMORA_ASSERT(m.data.size() <= kBlockDataMax);
        }
        io.u8(first);
        io.u16(m.reqId);
        io.u8(m.status);
        io.bytes16(m.data);
        return;
      }
      case MsgType::kCasReq: {
        auto &m = alt<CasReq>(io, msg);
        io.flag(first, m.notify, kFlagNotify);
        io.u8(first);
        io.u8(m.descriptor);
        io.u16(m.generation);
        io.u32(m.offset);
        io.u32(m.oldValue);
        io.u32(m.newValue);
        io.u8(m.resultDescriptor);
        io.u32(m.resultOffset);
        io.u16(m.reqId);
        return;
      }
      case MsgType::kCasResp: {
        auto &m = alt<CasResp>(io, msg);
        io.u8(first);
        io.u16(m.reqId);
        io.u8(m.success);
        io.u32(m.observed);
        return;
      }
      case MsgType::kNak: {
        auto &m = alt<Nak>(io, msg);
        io.u8(first);
        io.u16(m.reqId);
        io.u8(m.error);
        io.u8(m.originalType);
        return;
      }
      case MsgType::kRpc: {
        auto &m = alt<RpcMsg>(io, msg);
        bool keyed = m.idemKey != 0;
        io.flag(first, m.isResponse, kFlagRpcResponse);
        io.flag(first, keyed, kFlagRpcIdem);
        io.u8(first);
        io.u32(m.xid);
        if (keyed) {
            io.u64(m.idemKey);
        }
        io.bytes32(m.body);
        return;
      }
      case MsgType::kVectorOp: {
        auto &m = alt<VectorReq>(io, msg);
        if constexpr (!Io::kDecoding) {
            REMORA_ASSERT(encodedVectorSize(m) <= kBlockDataMax);
        }
        io.u8(first);
        layout(io, m);
        return;
      }
      case MsgType::kVectorResp:
        io.u8(first);
        layout(io, alt<VectorResp>(io, msg));
        return;
      case MsgType::kSeqData: {
        auto &m = alt<SeqMsg>(io, msg);
        io.u8(first);
        io.u32(m.seq);
        io.u32(m.innerCrc);
        io.u8(m.lastFrag);
        io.bytes32(m.inner);
        return;
      }
      case MsgType::kAck: {
        // An ack often rides a raw single cell, which has no AAL5 CRC;
        // the trailing guard word makes a flipped cumSeq bit a decode
        // error instead of a silent retirement of undelivered envelopes.
        auto &m = alt<AckMsg>(io, msg);
        io.u8(first);
        io.u32(m.cumSeq);
        uint32_t guard = ackGuard(m.cumSeq);
        io.u32(guard);
        io.check(guard == ackGuard(m.cumSeq), "ack guard CRC mismatch");
        return;
      }
    }
    io.u8(first);
    io.fail("unknown message type");
}

} // namespace

MsgType
messageType(const Message &msg)
{
    struct Visitor
    {
        MsgType operator()(const WriteReq &m) const
        {
            return m.data.size() <= kSmallWriteMax &&
                           m.offset < (1u << 24)
                       ? MsgType::kWriteSmall
                       : MsgType::kWriteBlock;
        }
        MsgType operator()(const ReadReq &) const { return MsgType::kReadReq; }
        MsgType operator()(const ReadResp &) const { return MsgType::kReadResp; }
        MsgType operator()(const CasReq &) const { return MsgType::kCasReq; }
        MsgType operator()(const CasResp &) const { return MsgType::kCasResp; }
        MsgType operator()(const Nak &) const { return MsgType::kNak; }
        MsgType operator()(const RpcMsg &) const { return MsgType::kRpc; }
        MsgType operator()(const VectorReq &) const
        {
            return MsgType::kVectorOp;
        }
        MsgType operator()(const VectorResp &) const
        {
            return MsgType::kVectorResp;
        }
        MsgType operator()(const SeqMsg &) const { return MsgType::kSeqData; }
        MsgType operator()(const AckMsg &) const { return MsgType::kAck; }
    };
    return std::visit(Visitor{}, msg);
}

std::vector<uint8_t>
encodeMessage(const Message &msg)
{
    util::ByteWriter w(64);
    util::Put io(w);
    layout(io, static_cast<uint8_t>(messageType(msg)), msg);
    return w.take();
}

util::Result<Message>
decodeMessage(std::span<const uint8_t> bytes, size_t *consumed)
{
    util::ByteReader r(bytes);
    util::Get io(r);
    Message msg;
    uint8_t first = bytes.empty() ? 0 : bytes[0];
    layout(io, first, msg);
    if (consumed != nullptr) {
        *consumed = r.position();
    }
    if (!io.ok()) {
        return util::Status(util::ErrorCode::kMalformed,
                            io.why() != nullptr
                                ? std::string(io.why())
                                : "truncated message type " +
                                      std::to_string(first & 0x0f));
    }
    return msg;
}

} // namespace remora::rmem
