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

uint8_t
firstOctet(MsgType type, bool notify, bool rpcResponse = false)
{
    uint8_t v = static_cast<uint8_t>(type) & 0x0f;
    if (notify) {
        v |= kFlagNotify;
    }
    if (rpcResponse) {
        v |= kFlagRpcResponse;
    }
    return v;
}

void
putU24(util::ByteWriter &w, uint32_t v)
{
    REMORA_ASSERT(v < (1u << 24));
    w.putU8(static_cast<uint8_t>(v));
    w.putU8(static_cast<uint8_t>(v >> 8));
    w.putU8(static_cast<uint8_t>(v >> 16));
}

uint32_t
getU24(util::ByteReader &r)
{
    uint32_t v = r.getU8();
    v |= static_cast<uint32_t>(r.getU8()) << 8;
    v |= static_cast<uint32_t>(r.getU8()) << 16;
    return v;
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
    switch (messageType(msg)) {
      case MsgType::kWriteSmall: {
        const auto &m = std::get<WriteReq>(msg);
        w.putU8(firstOctet(MsgType::kWriteSmall, m.notify));
        w.putU8(m.descriptor);
        w.putU16(m.generation);
        putU24(w, m.offset);
        w.putU8(static_cast<uint8_t>(m.data.size()));
        w.putBytes(m.data);
        break;
      }
      case MsgType::kWriteBlock: {
        const auto &m = std::get<WriteReq>(msg);
        REMORA_ASSERT(m.data.size() <= kBlockDataMax);
        w.putU8(firstOctet(MsgType::kWriteBlock, m.notify));
        w.putU8(m.descriptor);
        w.putU16(m.generation);
        w.putU32(m.offset);
        w.putU16(static_cast<uint16_t>(m.data.size()));
        w.putBytes(m.data);
        break;
      }
      case MsgType::kReadReq: {
        const auto &m = std::get<ReadReq>(msg);
        w.putU8(firstOctet(MsgType::kReadReq, m.notify));
        w.putU8(m.srcDescriptor);
        w.putU16(m.generation);
        w.putU32(m.srcOffset);
        w.putU8(m.dstDescriptor);
        w.putU32(m.dstOffset);
        w.putU16(m.count);
        w.putU16(m.reqId);
        break;
      }
      case MsgType::kReadResp: {
        const auto &m = std::get<ReadResp>(msg);
        REMORA_ASSERT(m.data.size() <= kBlockDataMax);
        w.putU8(firstOctet(MsgType::kReadResp, false));
        w.putU16(m.reqId);
        w.putU8(static_cast<uint8_t>(m.status));
        w.putU16(static_cast<uint16_t>(m.data.size()));
        w.putBytes(m.data);
        break;
      }
      case MsgType::kCasReq: {
        const auto &m = std::get<CasReq>(msg);
        w.putU8(firstOctet(MsgType::kCasReq, m.notify));
        w.putU8(m.descriptor);
        w.putU16(m.generation);
        w.putU32(m.offset);
        w.putU32(m.oldValue);
        w.putU32(m.newValue);
        w.putU8(m.resultDescriptor);
        w.putU32(m.resultOffset);
        w.putU16(m.reqId);
        break;
      }
      case MsgType::kCasResp: {
        const auto &m = std::get<CasResp>(msg);
        w.putU8(firstOctet(MsgType::kCasResp, false));
        w.putU16(m.reqId);
        w.putU8(m.success ? 1 : 0);
        w.putU32(m.observed);
        break;
      }
      case MsgType::kNak: {
        const auto &m = std::get<Nak>(msg);
        w.putU8(firstOctet(MsgType::kNak, false));
        w.putU16(m.reqId);
        w.putU8(static_cast<uint8_t>(m.error));
        w.putU8(static_cast<uint8_t>(m.originalType));
        break;
      }
      case MsgType::kRpc: {
        const auto &m = std::get<RpcMsg>(msg);
        uint8_t first = firstOctet(MsgType::kRpc, false, m.isResponse);
        if (m.idemKey != 0) {
            first |= kFlagRpcIdem;
        }
        w.putU8(first);
        w.putU32(m.xid);
        if (m.idemKey != 0) {
            w.putU64(m.idemKey);
        }
        w.putU32(static_cast<uint32_t>(m.body.size()));
        w.putBytes(m.body);
        break;
      }
      case MsgType::kVectorOp: {
        const auto &m = std::get<VectorReq>(msg);
        REMORA_ASSERT(!m.ops.empty() && m.ops.size() <= kMaxVectorOps);
        REMORA_ASSERT(encodedVectorSize(m) <= kBlockDataMax);
        w.putU8(firstOctet(MsgType::kVectorOp, false));
        w.putU16(m.reqId);
        w.putU8(static_cast<uint8_t>(m.ops.size()));
        for (const VectorSubOp &op : m.ops) {
            w.putU8(static_cast<uint8_t>(
                static_cast<uint8_t>(op.kind) | (op.notify ? 0x80 : 0)));
            w.putU8(op.descriptor);
            w.putU16(op.generation);
            w.putU32(op.offset);
            switch (op.kind) {
              case VecOpKind::kWrite:
                w.putU16(static_cast<uint16_t>(op.data.size()));
                w.putBytes(op.data);
                break;
              case VecOpKind::kRead:
                w.putU16(op.count);
                break;
              case VecOpKind::kCas:
                w.putU32(op.oldValue);
                w.putU32(op.newValue);
                break;
            }
        }
        break;
      }
      case MsgType::kVectorResp: {
        const auto &m = std::get<VectorResp>(msg);
        REMORA_ASSERT(m.results.size() <= kMaxVectorOps);
        w.putU8(firstOctet(MsgType::kVectorResp, false));
        w.putU16(m.reqId);
        w.putU8(static_cast<uint8_t>(m.results.size()));
        for (const VectorSubResult &res : m.results) {
            w.putU8(static_cast<uint8_t>(res.status));
            w.putU8(static_cast<uint8_t>(
                static_cast<uint8_t>(res.kind) | (res.success ? 0x80 : 0)));
            switch (res.kind) {
              case VecOpKind::kWrite:
                break;
              case VecOpKind::kRead:
                w.putU16(static_cast<uint16_t>(res.data.size()));
                w.putBytes(res.data);
                break;
              case VecOpKind::kCas:
                w.putU32(res.observed);
                break;
            }
        }
        break;
      }
      case MsgType::kSeqData: {
        const auto &m = std::get<SeqMsg>(msg);
        w.putU8(firstOctet(MsgType::kSeqData, false));
        w.putU32(m.seq);
        w.putU32(m.innerCrc);
        w.putU8(m.lastFrag);
        w.putU32(static_cast<uint32_t>(m.inner.size()));
        w.putBytes(m.inner);
        break;
      }
      case MsgType::kAck: {
        // An ack often rides a raw single cell, which has no AAL5 CRC;
        // the trailing guard word makes a flipped cumSeq bit a decode
        // error instead of a silent retirement of undelivered envelopes.
        const auto &m = std::get<AckMsg>(msg);
        w.putU8(firstOctet(MsgType::kAck, false));
        w.putU32(m.cumSeq);
        uint8_t seqBytes[4] = {
            static_cast<uint8_t>(m.cumSeq),
            static_cast<uint8_t>(m.cumSeq >> 8),
            static_cast<uint8_t>(m.cumSeq >> 16),
            static_cast<uint8_t>(m.cumSeq >> 24),
        };
        w.putU32(util::crc32Ieee(seqBytes));
        break;
      }
    }
    return w.take();
}

namespace {

/** Decode one message from @p r (shared by the public wrapper). */
util::Result<Message>
decodeBody(util::ByteReader &r)
{
    uint8_t first = r.getU8();
    auto type = static_cast<MsgType>(first & 0x0f);
    bool notify = (first & kFlagNotify) != 0;

    auto malformed = [&]() -> util::Result<Message> {
        return util::Status(util::ErrorCode::kMalformed,
                            "truncated message type " +
                                std::to_string(first & 0x0f));
    };

    switch (type) {
      case MsgType::kWriteSmall: {
        WriteReq m;
        m.notify = notify;
        m.descriptor = r.getU8();
        m.generation = r.getU16();
        m.offset = getU24(r);
        uint8_t count = r.getU8();
        auto data = r.viewBytes(count);
        if (!r.ok()) {
            return malformed();
        }
        m.data.assign(data.begin(), data.end());
        return Message(std::move(m));
      }
      case MsgType::kWriteBlock: {
        WriteReq m;
        m.notify = notify;
        m.descriptor = r.getU8();
        m.generation = r.getU16();
        m.offset = r.getU32();
        uint16_t count = r.getU16();
        auto data = r.viewBytes(count);
        if (!r.ok()) {
            return malformed();
        }
        m.data.assign(data.begin(), data.end());
        return Message(std::move(m));
      }
      case MsgType::kReadReq: {
        ReadReq m;
        m.notify = notify;
        m.srcDescriptor = r.getU8();
        m.generation = r.getU16();
        m.srcOffset = r.getU32();
        m.dstDescriptor = r.getU8();
        m.dstOffset = r.getU32();
        m.count = r.getU16();
        m.reqId = r.getU16();
        if (!r.ok()) {
            return malformed();
        }
        return Message(m);
      }
      case MsgType::kReadResp: {
        ReadResp m;
        m.reqId = r.getU16();
        m.status = static_cast<util::ErrorCode>(r.getU8());
        uint16_t count = r.getU16();
        auto data = r.viewBytes(count);
        if (!r.ok()) {
            return malformed();
        }
        m.data.assign(data.begin(), data.end());
        return Message(std::move(m));
      }
      case MsgType::kCasReq: {
        CasReq m;
        m.notify = notify;
        m.descriptor = r.getU8();
        m.generation = r.getU16();
        m.offset = r.getU32();
        m.oldValue = r.getU32();
        m.newValue = r.getU32();
        m.resultDescriptor = r.getU8();
        m.resultOffset = r.getU32();
        m.reqId = r.getU16();
        if (!r.ok()) {
            return malformed();
        }
        return Message(m);
      }
      case MsgType::kCasResp: {
        CasResp m;
        m.reqId = r.getU16();
        m.success = r.getU8() != 0;
        m.observed = r.getU32();
        if (!r.ok()) {
            return malformed();
        }
        return Message(m);
      }
      case MsgType::kNak: {
        Nak m;
        m.reqId = r.getU16();
        m.error = static_cast<util::ErrorCode>(r.getU8());
        m.originalType = static_cast<MsgType>(r.getU8());
        if (!r.ok()) {
            return malformed();
        }
        return Message(m);
      }
      case MsgType::kRpc: {
        RpcMsg m;
        m.isResponse = (first & kFlagRpcResponse) != 0;
        m.xid = r.getU32();
        if ((first & kFlagRpcIdem) != 0) {
            m.idemKey = r.getU64();
        }
        uint32_t count = r.getU32();
        auto data = r.viewBytes(count);
        if (!r.ok()) {
            return malformed();
        }
        m.body.assign(data.begin(), data.end());
        return Message(std::move(m));
      }
      case MsgType::kVectorOp: {
        VectorReq m;
        m.reqId = r.getU16();
        uint8_t opCount = r.getU8();
        if (!r.ok() || opCount == 0 || opCount > kMaxVectorOps) {
            return malformed();
        }
        m.ops.reserve(opCount);
        for (uint8_t i = 0; i < opCount; ++i) {
            VectorSubOp op;
            uint8_t kindByte = r.getU8();
            if (r.ok() && (kindByte & 0x03) > 2) {
                return malformed();
            }
            op.kind = static_cast<VecOpKind>(kindByte & 0x03);
            op.notify = (kindByte & 0x80) != 0;
            op.descriptor = r.getU8();
            op.generation = r.getU16();
            op.offset = r.getU32();
            switch (op.kind) {
              case VecOpKind::kWrite: {
                uint16_t len = r.getU16();
                auto data = r.viewBytes(len);
                if (!r.ok()) {
                    return malformed();
                }
                op.data.assign(data.begin(), data.end());
                break;
              }
              case VecOpKind::kRead:
                op.count = r.getU16();
                break;
              case VecOpKind::kCas:
                op.oldValue = r.getU32();
                op.newValue = r.getU32();
                break;
            }
            if (!r.ok()) {
                return malformed();
            }
            m.ops.push_back(std::move(op));
        }
        return Message(std::move(m));
      }
      case MsgType::kVectorResp: {
        VectorResp m;
        m.reqId = r.getU16();
        uint8_t resultCount = r.getU8();
        if (!r.ok() || resultCount > kMaxVectorOps) {
            return malformed();
        }
        m.results.reserve(resultCount);
        for (uint8_t i = 0; i < resultCount; ++i) {
            VectorSubResult res;
            res.status = static_cast<util::ErrorCode>(r.getU8());
            uint8_t kindByte = r.getU8();
            if (r.ok() && (kindByte & 0x03) > 2) {
                return malformed();
            }
            res.kind = static_cast<VecOpKind>(kindByte & 0x03);
            res.success = (kindByte & 0x80) != 0;
            switch (res.kind) {
              case VecOpKind::kWrite:
                break;
              case VecOpKind::kRead: {
                uint16_t len = r.getU16();
                auto data = r.viewBytes(len);
                if (!r.ok()) {
                    return malformed();
                }
                res.data.assign(data.begin(), data.end());
                break;
              }
              case VecOpKind::kCas:
                res.observed = r.getU32();
                break;
            }
            if (!r.ok()) {
                return malformed();
            }
            m.results.push_back(std::move(res));
        }
        return Message(std::move(m));
      }
      case MsgType::kSeqData: {
        SeqMsg m;
        m.seq = r.getU32();
        m.innerCrc = r.getU32();
        m.lastFrag = r.getU8();
        uint32_t count = r.getU32();
        auto data = r.viewBytes(count);
        if (!r.ok()) {
            return malformed();
        }
        m.inner.assign(data.begin(), data.end());
        return Message(std::move(m));
      }
      case MsgType::kAck: {
        AckMsg m;
        m.cumSeq = r.getU32();
        uint32_t guard = r.getU32();
        if (!r.ok()) {
            return malformed();
        }
        uint8_t seqBytes[4] = {
            static_cast<uint8_t>(m.cumSeq),
            static_cast<uint8_t>(m.cumSeq >> 8),
            static_cast<uint8_t>(m.cumSeq >> 16),
            static_cast<uint8_t>(m.cumSeq >> 24),
        };
        if (guard != util::crc32Ieee(seqBytes)) {
            return util::Status(util::ErrorCode::kMalformed,
                                "ack guard CRC mismatch");
        }
        return Message(m);
      }
    }
    return util::Status(util::ErrorCode::kMalformed, "unknown message type");
}

} // namespace

util::Result<Message>
decodeMessage(std::span<const uint8_t> bytes, size_t *consumed)
{
    util::ByteReader r(bytes);
    util::Result<Message> result = decodeBody(r);
    if (consumed != nullptr) {
        *consumed = bytes.size() - r.remaining();
    }
    return result;
}

} // namespace remora::rmem
