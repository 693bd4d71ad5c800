/**
 * @file
 * Vectored meta-instructions: N sub-ops in one wire message.
 *
 * A kVectorOp message carries up to kMaxVectorOps READ/WRITE/CAS
 * sub-ops addressed to segments of a single target node, all inside one
 * AAL5 frame. The initiator charges one trap + header + validation and
 * a small per-sub-op marginal cost; the serving kernel validates each
 * distinct (slot, generation, rights) key once (ValidationCache) and
 * coalesces the notify bits that target the same channel into a single
 * doorbell (NotificationChannel::postBatch). This amortizes exactly the
 * per-op software overhead the paper identifies as the binding
 * constraint — the wire was never the bottleneck.
 *
 * The wire formats follow the first octet (kVectorOp, kVectorResp) and
 * are the layouts below: a u16 reqId (0 when no response is expected,
 * a pure-write batch), a u8 count, then each sub-op or result. The
 * response carries per-sub-op status plus READ data / CAS outcome;
 * pure-write batches get no response (local completion, like scalar
 * WRITE), and an all-invalid pure-write batch NAKs once.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rmem/segment.h"
#include "sim/task.h"
#include "util/bytes.h"
#include "util/status.h"

namespace remora::rmem {

class DescriptorTable;
struct SegmentDescriptor;
class RmemEngine;

/** Sub-op discriminator inside a vectored message. */
enum class VecOpKind : uint8_t
{
    kWrite = 0,
    kRead = 1,
    kCas = 2,
};

/** Most sub-ops one kVectorOp message may carry. */
inline constexpr size_t kMaxVectorOps = 64;

/** Bytes before a vector message's first sub-op or result. */
inline constexpr size_t kVectorHeaderBytes = 4; // first octet + reqId + count

/** One sub-op as it travels on the wire. */
struct VectorSubOp
{
    VecOpKind kind = VecOpKind::kWrite;
    /** Target-node segment slot. */
    SegmentId descriptor = 0;
    Generation generation = 0;
    uint32_t offset = 0;
    /**
     * WRITE/CAS: request target-side control transfer. READ: request
     * reader-side notification when the data is deposited locally.
     */
    bool notify = false;
    /** WRITE payload. */
    std::vector<uint8_t> data;
    /** READ byte count. */
    uint16_t count = 0;
    /** CAS comparand / replacement. */
    uint32_t oldValue = 0;
    uint32_t newValue = 0;
};

/** The kVectorOp wire message. */
struct VectorReq
{
    uint16_t reqId = 0;
    std::vector<VectorSubOp> ops;
};

/** Per-sub-op outcome inside a kVectorResp. */
struct VectorSubResult
{
    util::ErrorCode status = util::ErrorCode::kOk;
    VecOpKind kind = VecOpKind::kWrite;
    /** READ payload (status kOk only). */
    std::vector<uint8_t> data;
    /** CAS outcome. */
    bool success = false;
    uint32_t observed = 0;
};

/** The kVectorResp wire message. */
struct VectorResp
{
    uint16_t reqId = 0;
    std::vector<VectorSubResult> results;
};

/**
 * A sub-op's or result's kind octet: the kind in the low two bits and
 * @p flag (a sub-op's notify, a result's success) in bit 7. Kind 3
 * names no sub-op.
 */
template <typename Io, typename K, typename F>
void
kindOctet(Io &io, K &kind, F &flag)
{
    auto v = static_cast<uint8_t>(static_cast<uint8_t>(kind) |
                                  (flag ? 0x80 : 0));
    io.u8(v);
    io.check((v & 0x03) <= 2);
    if constexpr (Io::kDecoding) {
        kind = static_cast<VecOpKind>(v & 0x03);
        flag = (v & 0x80) != 0;
    }
}

/** A sub-op: kind, target, then the WRITE payload, READ count or CAS words. */
template <typename Io, util::MaybeConst<VectorSubOp> T>
void
layout(Io &io, T &op)
{
    kindOctet(io, op.kind, op.notify);
    io.u8(op.descriptor);
    io.u16(op.generation);
    io.u32(op.offset);
    switch (op.kind) {
      case VecOpKind::kWrite:
        io.bytes16(op.data);
        break;
      case VecOpKind::kRead:
        io.u16(op.count);
        break;
      case VecOpKind::kCas:
        io.u32(op.oldValue);
        io.u32(op.newValue);
        break;
    }
}

/** A kVectorOp body: reqId, then 1..kMaxVectorOps sub-ops. */
template <typename Io, util::MaybeConst<VectorReq> T>
void
layout(Io &io, T &req)
{
    io.u16(req.reqId);
    auto n = static_cast<uint8_t>(req.ops.size());
    io.u8(n);
    io.check(n >= 1 && n <= kMaxVectorOps);
    io.each(req.ops, n, [&io](auto &op) { layout(io, op); });
}

/** A result: status, kind, then the READ data or the CAS word. */
template <typename Io, util::MaybeConst<VectorSubResult> T>
void
layout(Io &io, T &res)
{
    io.u8(res.status);
    kindOctet(io, res.kind, res.success);
    switch (res.kind) {
      case VecOpKind::kWrite:
        break;
      case VecOpKind::kRead:
        io.bytes16(res.data);
        break;
      case VecOpKind::kCas:
        io.u32(res.observed);
        break;
    }
}

/** A kVectorResp body: reqId, then up to kMaxVectorOps results. */
template <typename Io, util::MaybeConst<VectorResp> T>
void
layout(Io &io, T &resp)
{
    io.u16(resp.reqId);
    auto n = static_cast<uint8_t>(resp.results.size());
    io.u8(n);
    io.check(n <= kMaxVectorOps);
    io.each(resp.results, n, [&io](auto &res) { layout(io, res); });
}

/** Initiator-side deposit coordinates of one READ/CAS sub-op. */
struct VectorLocalDeposit
{
    /** True for READ/CAS sub-ops (something lands locally). */
    bool active = false;
    /** Local destination segment / offset. */
    SegmentId dstSeg = 0;
    uint32_t dstOff = 0;
    /** Post a reader-side notification when the deposit completes. */
    bool notify = false;
};

/** A fully-assembled batch, ready for RmemEngine::issueVector(). */
struct VectorBatch
{
    net::NodeId target = 0;
    std::vector<VectorSubOp> ops;
    /** Parallel to ops: where READ data / CAS results land locally. */
    std::vector<VectorLocalDeposit> local;
};

/** Result of a completed vectored meta-instruction. */
struct VectorOutcome
{
    /** Transport-level status (timeout / NAK); per-sub-op in results. */
    util::Status status;
    /** One entry per sub-op, in issue order (empty for pure writes). */
    std::vector<VectorSubResult> results;
};

/** Rights a sub-op of @p kind needs at the target. */
Rights vecOpRights(VecOpKind kind);

/** Bytes a sub-op touches at the target: payload, count or one word. */
uint32_t subOpBytes(const VectorSubOp &op);

/**
 * The import-side check of one READ/WRITE/CAS the initiating kernel runs
 * before anything reaches the wire: the handle must carry the rights
 * @p kind needs, [offset, offset+count) must lie inside it, and a CAS
 * word must be aligned. Shared by the scalar meta-instructions and
 * BatchBuilder.
 */
util::Status checkImport(const ImportedSegment &seg, VecOpKind kind,
                         uint64_t offset, uint64_t count);

/** Encoded wire size of a VectorReq (for frame budgeting), by its layout. */
size_t encodedVectorSize(const VectorReq &req);

/**
 * Worst-case encoded wire size of the response to @p req: each result
 * by its layout, with a READ's full count of data.
 */
size_t encodedVectorRespSize(const VectorReq &req);

// ----------------------------------------------------------------------
// Serving-side validation cache
// ----------------------------------------------------------------------

/**
 * Per-batch validation cache: N sub-ops naming the same (slot,
 * generation, rights) triple validate once. The full descriptor-table
 * walk still runs for every sub-op (bounds are a per-sub-op property
 * and revocation must never be missed); what the cache elides is the
 * modeled *cost* — the engine charges validateCost per miss, not per
 * sub-op, exactly as a hardware translation cache would elide the
 * table walk's cycles.
 */
class ValidationCache
{
  public:
    explicit ValidationCache(DescriptorTable &table) : table_(table) {}

    /** Validate one sub-op; counts a hit when the key was seen before. */
    util::Result<SegmentDescriptor *> validate(SegmentId id,
                                               Generation generation,
                                               uint64_t offset, uint64_t count,
                                               Rights needed);

    /** Sub-ops whose key had already validated successfully. */
    uint64_t hits() const { return hits_; }

  private:
    DescriptorTable &table_;
    /** (slot | generation<<8 | rights<<24) -> validated descriptor. */
    std::unordered_map<uint32_t, SegmentDescriptor *> seen_;
    uint64_t hits_ = 0;
};

/**
 * Count of distinct (slot, generation, rights-needed) keys in @p ops:
 * the number of validateCost charges the serving side pays.
 */
size_t distinctValidationKeys(const std::vector<VectorSubOp> &ops);

// ----------------------------------------------------------------------
// BatchBuilder
// ----------------------------------------------------------------------

/**
 * Opt-in builder upper layers use to gather sub-ops for one target
 * node. Import-side checks (rights, bounds, frame budget, single
 * target) run at add time so a bad op is rejected before anything hits
 * the wire; issue() hands the batch to RmemEngine::issueVector().
 */
class BatchBuilder
{
  public:
    /** Parameters of one batched WRITE. */
    struct Write
    {
        ImportedSegment dst;
        uint32_t offset = 0;
        std::vector<uint8_t> data;
        bool notify = false;
    };

    /** Parameters of one batched READ. */
    struct Read
    {
        ImportedSegment src;
        uint32_t srcOff = 0;
        /** Locally exported destination segment / offset. */
        SegmentId dstSeg = 0;
        uint32_t dstOff = 0;
        uint16_t count = 0;
        bool notify = false;
    };

    explicit BatchBuilder(RmemEngine &engine) : engine_(engine) {}

    /** Append one WRITE sub-op (checked against the import handle). */
    util::Status addWrite(Write op);

    /** Append one READ sub-op. */
    util::Status addRead(Read op);

    /** Sub-ops gathered so far. */
    size_t size() const { return batch_.ops.size(); }

    bool empty() const { return batch_.ops.empty(); }

    /** Current encoded request size in bytes. */
    size_t wireBytes() const;

    /**
     * Issue the gathered batch as one vectored meta-instruction and
     * reset the builder for reuse. An empty batch resolves immediately.
     *
     * @param timeout Zero = wait forever (response-carrying batches).
     */
    sim::Task<VectorOutcome> issue(sim::Duration timeout = 0);

  private:
    /**
     * Run the import-side check, keep the batch single-target and within
     * its frame budgets, and append @p sub with its local deposit.
     */
    util::Status append(const ImportedSegment &seg, VectorSubOp sub,
                        VectorLocalDeposit local);

    RmemEngine &engine_;
    VectorBatch batch_;
    bool haveTarget_ = false;
    /** Encoded size of the batch's worst-case response. */
    size_t respBytes_ = kVectorHeaderBytes;
};

} // namespace remora::rmem
