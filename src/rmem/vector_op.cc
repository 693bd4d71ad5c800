#include "rmem/vector_op.h"

#include <utility>

#include "rmem/descriptor.h"
#include "rmem/engine.h"
#include "rmem/protocol.h"

namespace remora::rmem {

namespace {

/** Worst-case response bytes of one sub-op: its result, READ data full. */
size_t
subOpRespBytes(const VectorSubOp &op)
{
    VectorSubResult res;
    res.kind = op.kind;
    return util::sizeOf(res) + (op.kind == VecOpKind::kRead ? op.count : 0);
}

/** The (slot, generation, rights-needed) validation key of a sub-op. */
uint32_t
validationKey(const VectorSubOp &op)
{
    return static_cast<uint32_t>(op.descriptor) |
           (static_cast<uint32_t>(op.generation) << 8) |
           (static_cast<uint32_t>(vecOpRights(op.kind)) << 24);
}

} // namespace

Rights
vecOpRights(VecOpKind kind)
{
    switch (kind) {
      case VecOpKind::kWrite:
        return Rights::kWrite;
      case VecOpKind::kRead:
        return Rights::kRead;
      case VecOpKind::kCas:
        return Rights::kCas;
    }
    return Rights::kNone;
}

uint32_t
subOpBytes(const VectorSubOp &op)
{
    switch (op.kind) {
      case VecOpKind::kWrite:
        return static_cast<uint32_t>(op.data.size());
      case VecOpKind::kRead:
        return op.count;
      case VecOpKind::kCas:
        break;
    }
    return 4;
}

util::Status
checkImport(const ImportedSegment &seg, VecOpKind kind, uint64_t offset,
            uint64_t count)
{
    static constexpr const char *kNoRight[] = {"import lacks write right",
                                               "import lacks read right",
                                               "import lacks CAS right"};
    static constexpr const char *kOutside[] = {
        "write outside imported segment", "read outside imported segment",
        "CAS target invalid"};
    auto k = static_cast<size_t>(kind);
    if (!hasRights(seg.rights, vecOpRights(kind))) {
        return util::Status(util::ErrorCode::kAccessDenied, kNoRight[k]);
    }
    if (offset + count > seg.size ||
        (kind == VecOpKind::kCas && offset % 4 != 0)) {
        return util::Status(util::ErrorCode::kOutOfBounds, kOutside[k]);
    }
    return {};
}

size_t
encodedVectorSize(const VectorReq &req)
{
    size_t bytes = kVectorHeaderBytes;
    for (const VectorSubOp &op : req.ops) {
        bytes += util::sizeOf(op);
    }
    return bytes;
}

size_t
encodedVectorRespSize(const VectorReq &req)
{
    size_t bytes = kVectorHeaderBytes;
    for (const VectorSubOp &op : req.ops) {
        bytes += subOpRespBytes(op);
    }
    return bytes;
}

// ----------------------------------------------------------------------
// ValidationCache
// ----------------------------------------------------------------------

util::Result<SegmentDescriptor *>
ValidationCache::validate(SegmentId id, Generation generation,
                          uint64_t offset, uint64_t count, Rights needed)
{
    uint32_t key = static_cast<uint32_t>(id) |
                   (static_cast<uint32_t>(generation) << 8) |
                   (static_cast<uint32_t>(needed) << 24);
    auto it = seen_.find(key);
    if (it != seen_.end()) {
        ++hits_;
    }
    // The walk always runs for semantics (bounds and revocation are
    // per-sub-op concerns); the hit/miss split drives the engine's
    // validateCost accounting only.
    auto v = table_.validate(id, generation, offset, count, needed);
    if (it == seen_.end()) {
        seen_.emplace(key, v.ok() ? v.value() : nullptr);
    }
    return v;
}

size_t
distinctValidationKeys(const std::vector<VectorSubOp> &ops)
{
    // Tiny batches: a quadratic scan beats hashing and allocates nothing.
    size_t distinct = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        uint32_t key = validationKey(ops[i]);
        bool seen = false;
        for (size_t j = 0; j < i && !seen; ++j) {
            seen = (validationKey(ops[j]) == key);
        }
        if (!seen) {
            ++distinct;
        }
    }
    return distinct;
}

// ----------------------------------------------------------------------
// BatchBuilder
// ----------------------------------------------------------------------

util::Status
BatchBuilder::append(const ImportedSegment &seg, VectorSubOp sub,
                     VectorLocalDeposit local)
{
    util::Status admitted =
        checkImport(seg, sub.kind, sub.offset, subOpBytes(sub));
    if (!admitted.ok()) {
        return admitted;
    }
    if (batch_.ops.size() >= kMaxVectorOps) {
        return util::Status(util::ErrorCode::kResource, "vector batch full");
    }
    if (haveTarget_ && seg.node != batch_.target) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "vector batch spans target nodes");
    }
    if (wireBytes() + util::sizeOf(sub) > kBlockDataMax) {
        return util::Status(util::ErrorCode::kResource,
                            "vector batch exceeds frame budget");
    }
    if (respBytes_ + subOpRespBytes(sub) > kBlockDataMax) {
        return util::Status(util::ErrorCode::kResource,
                            "vector response exceeds frame budget");
    }
    batch_.target = seg.node;
    haveTarget_ = true;
    respBytes_ += subOpRespBytes(sub);
    batch_.ops.push_back(std::move(sub));
    batch_.local.push_back(local);
    return {};
}

util::Status
BatchBuilder::addWrite(Write op)
{
    return append(op.dst,
                  {VecOpKind::kWrite, op.dst.descriptor, op.dst.generation,
                   op.offset, op.notify, std::move(op.data)},
                  VectorLocalDeposit{});
}

util::Status
BatchBuilder::addRead(Read op)
{
    return append(op.src,
                  {VecOpKind::kRead, op.src.descriptor, op.src.generation,
                   op.srcOff, op.notify, {}, op.count},
                  VectorLocalDeposit{true, op.dstSeg, op.dstOff, op.notify});
}

size_t
BatchBuilder::wireBytes() const
{
    size_t bytes = kVectorHeaderBytes;
    for (const VectorSubOp &op : batch_.ops) {
        bytes += util::sizeOf(op);
    }
    return bytes;
}

sim::Task<VectorOutcome>
BatchBuilder::issue(sim::Duration timeout)
{
    if (batch_.ops.empty()) {
        co_return VectorOutcome{util::Status(), {}};
    }
    VectorBatch batch = std::move(batch_);
    batch_ = VectorBatch{};
    haveTarget_ = false;
    respBytes_ = kVectorHeaderBytes;
    VectorOutcome out =
        co_await engine_.issueVector(std::move(batch), timeout);
    co_return out;
}

} // namespace remora::rmem
