#include "dfs/backend.h"

#include <algorithm>

#include "util/panic.h"

namespace remora::dfs {

namespace {

/** Deadline for DX remote reads (silence means the server is gone). */
constexpr sim::Duration kDxReadTimeout = sim::msec(100);

/** Scratch deposit slots: big enough for a header + unaligned block. */
constexpr uint32_t kScratchSlotBytes = 20480;
constexpr uint32_t kScratchSlots = 4;

} // namespace

// ----------------------------------------------------------------------
// DxBackend
// ----------------------------------------------------------------------

DxBackend::DxBackend(rmem::RmemEngine &engine, mem::Process &clerkProcess,
                     const ServerAreaHandles &areas,
                     const CacheGeometry &geometry,
                     rpc::Hybrid1Client *fallback)
    : engine_(engine), process_(clerkProcess), areas_(areas), geo_(geometry)
{
    if (fallback != nullptr) {
        fallback_.emplace(*fallback);
    }
    uint32_t bytes = kScratchSlots * kScratchSlotBytes;
    scratchBase_ = process_.space().allocRegion(bytes);
    auto h = engine_.exportSegment(process_, scratchBase_, bytes,
                                   rmem::Rights::kRead,
                                   rmem::NotifyPolicy::kNever, "dx.scratch");
    if (!h.ok()) {
        REMORA_FATAL("dx backend: cannot export scratch: " +
                     h.status().toString());
    }
    scratchSeg_ = h.value().descriptor;
}

uint32_t
DxBackend::scratchSlot()
{
    return (scratchCursor_++ % kScratchSlots) * kScratchSlotBytes;
}

template <typename R>
sim::Task<util::Result<DxBackend::Hit<R>>>
DxBackend::probe(rmem::ImportedSegment area, R want, uint32_t count)
{
    REMORA_ASSERT(count <= kScratchSlotBytes);
    uint32_t slot = scratchSlot();
    rmem::ReadOutcome out = co_await engine_.read(
        area, static_cast<uint32_t>(want.offset(geo_)), scratchSeg_, slot,
        count, false, kDxReadTimeout);
    if (out.status.code() == util::ErrorCode::kTimeout) {
        co_return out.status;
    }
    if (out.status.ok()) {
        R rec = R::decode(out.data);
        if (rec.holds(want)) {
            co_return Hit<R>{std::move(rec), std::move(out.data)};
        }
    }
    ++misses_;
    co_return util::Status(util::ErrorCode::kNotFound,
                           "not in server cache");
}

sim::Task<util::Status>
DxBackend::null()
{
    // Pure data transfer has no server ping: nothing to do.
    co_return util::Status();
}

sim::Task<util::Result<FileAttr>>
DxBackend::getattr(FileHandle fh)
{
    auto hit = co_await probe(areas_.attr, AttrRecord(fh.key()));
    if (hit.ok()) {
        co_return hit.value().rec.attr;
    }
    if (fallback_ && hit.status().code() == util::ErrorCode::kNotFound) {
        co_return co_await fallback_->getattr(fh);
    }
    co_return hit.status();
}

sim::Task<util::Result<LookupReply>>
DxBackend::lookup(FileHandle dir, std::string name)
{
    // Named, not a temporary: GCC 12 destroys a temporary that owns
    // memory twice when it is built inside a co_await operand.
    NameLookupRecord want(dir.key(), name);
    auto hit = co_await probe(areas_.name, std::move(want));
    if (hit.ok()) {
        const NameLookupRecord &rec = hit.value().rec;
        co_return LookupReply{FileHandle::fromKey(rec.childKey),
                              rec.childAttr};
    }
    if (fallback_ && hit.status().code() == util::ErrorCode::kNotFound) {
        co_return co_await fallback_->lookup(dir, std::move(name));
    }
    co_return hit.status();
}

sim::Task<util::Result<std::vector<uint8_t>>>
DxBackend::read(FileHandle fh, uint64_t offset, uint32_t count)
{
    // Plan the per-block fetches covering [offset, offset+count).
    struct BlockFetch
    {
        DataSlotHeader want;
        uint32_t blockOff;
        uint32_t chunk;
    };
    std::vector<BlockFetch> plan;
    for (uint64_t pos = offset, end = offset + count; pos < end;) {
        uint32_t blockOff = static_cast<uint32_t>(pos % kBlockBytes);
        uint32_t chunk = static_cast<uint32_t>(
            std::min<uint64_t>(end - pos, kBlockBytes - blockOff));
        plan.push_back(BlockFetch{
            DataSlotHeader(fh.key(), pos / kBlockBytes), blockOff, chunk});
        pos += chunk;
    }

    std::vector<uint8_t> out;
    out.reserve(count);
    // Fetch in windows of up to kScratchSlots blocks: ONE vectored READ
    // per window (one trap, one round trip, one deposit interrupt)
    // where the scalar loop paid one of each per block. Each block's
    // header+payload lands in its own scratch slot.
    //
    // Under loss a big window is fragile — one dropped cell times out
    // the whole batch — so a timeout halves the window and retries the
    // same range rather than surfacing the error: smaller frames have
    // proportionally better odds of arriving intact. At window 1 a
    // bounded number of retries remains before the timeout propagates.
    size_t windowCap = kScratchSlots;
    int retriesAtMin = 0;
    constexpr int kMaxRetriesAtMin = 3;
    for (size_t base = 0; base < plan.size();) {
        size_t window = std::min<size_t>(windowCap, plan.size() - base);
        std::vector<rmem::BatchBuilder::Read> ops;
        ops.reserve(window);
        for (size_t i = 0; i < window; ++i) {
            const BlockFetch &b = plan[base + i];
            rmem::BatchBuilder::Read op;
            op.src = areas_.data;
            op.srcOff = static_cast<uint32_t>(b.want.offset(geo_));
            op.dstSeg = scratchSeg_;
            op.dstOff = static_cast<uint32_t>(i * kScratchSlotBytes);
            op.count = static_cast<uint16_t>(kDataHeaderBytes + b.blockOff +
                                             b.chunk);
            ops.push_back(std::move(op));
        }
        auto outcome =
            co_await engine_.readv(std::move(ops), kDxReadTimeout);
        if (!outcome.status.ok()) {
            bool retryable =
                outcome.status.code() == util::ErrorCode::kTimeout &&
                (windowCap > 1 || retriesAtMin < kMaxRetriesAtMin);
            if (retryable) {
                if (windowCap > 1) {
                    windowCap /= 2;
                } else {
                    ++retriesAtMin;
                }
                ++windowShrinks_;
                continue; // retry the same range with a smaller window
            }
            co_return outcome.status;
        }
        REMORA_ASSERT(outcome.results.size() == window);
        for (size_t i = 0; i < window; ++i) {
            const BlockFetch &b = plan[base + i];
            const rmem::VectorSubResult &res = outcome.results[i];
            if (res.status != util::ErrorCode::kOk) {
                co_return util::Status(res.status,
                                       "block fetch rejected at server");
            }
            DataSlotHeader hdr = DataSlotHeader::decode(res.data);
            if (!hdr.holds(b.want)) {
                ++misses_;
                if (fallback_) {
                    // One call serves the whole read and returns.
                    // NOLINTNEXTLINE(remora-scalar-op-loop)
                    co_return co_await fallback_->read(fh, offset, count);
                }
                co_return util::Status(util::ErrorCode::kNotFound,
                                       "block not in server cache");
            }
            if (b.blockOff >= hdr.validBytes) {
                co_return out; // past end of file
            }
            uint32_t take = std::min(b.chunk, hdr.validBytes - b.blockOff);
            auto data = std::span<const uint8_t>(res.data)
                            .subspan(kDataHeaderBytes + b.blockOff, take);
            out.insert(out.end(), data.begin(), data.end());
            if (take < b.chunk) {
                co_return out; // short block: end of file
            }
        }
        base += window;
    }
    co_return out;
}

sim::Task<util::Status>
DxBackend::write(FileHandle fh, uint64_t offset, std::vector<uint8_t> data)
{
    // Plan every block's sub-ops up front, then ship them as vectored
    // WRITE batches: one trap and one frame cover many blocks where the
    // scalar loop paid per block. Sub-op order inside a batch is
    // preserved by the serving CPU's FIFO, so the data-first / tag-last
    // discipline holds exactly as it did for sequential scalar writes —
    // a concurrent reader never sees a valid tag over missing bytes.
    struct BlockPut
    {
        /** The header to deposit: the block's key and valid extent. */
        DataSlotHeader hdr;
        uint32_t blockOff;
        uint32_t chunk;
        uint64_t pos;
    };
    std::vector<BlockPut> puts;
    for (uint64_t pos = 0; pos < data.size();) {
        uint64_t abs = offset + pos;
        uint32_t blockOff = static_cast<uint32_t>(abs % kBlockBytes);
        uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
            data.size() - pos, kBlockBytes - blockOff));
        BlockPut p{DataSlotHeader(fh.key(), abs / kBlockBytes), blockOff,
                   chunk, pos};
        p.hdr.validBytes = blockOff + chunk;
        puts.push_back(p);
        pos += chunk;
    }

    // A write covering only part of its block must not shrink the
    // block's valid range: stamping validBytes = blockOff + chunk over
    // a fully-valid cached block would truncate it, and the next read
    // would mistake the cut for end-of-file. Fetch those blocks'
    // current headers first and keep the larger extent. Full-block
    // writes define the whole range themselves and skip the round
    // trip, so the streaming path pays nothing.
    std::vector<size_t> partials;
    for (size_t i = 0; i < puts.size(); ++i) {
        if (puts[i].blockOff > 0 || puts[i].chunk < kBlockBytes) {
            partials.push_back(i);
        }
    }
    if (!partials.empty()) {
        rmem::VectorOutcome hdrs;
        for (int attempt = 0;; ++attempt) {
            std::vector<rmem::BatchBuilder::Read> ops;
            ops.reserve(partials.size());
            for (size_t k = 0; k < partials.size(); ++k) {
                rmem::BatchBuilder::Read op;
                op.src = areas_.data;
                op.srcOff = static_cast<uint32_t>(
                    puts[partials[k]].hdr.offset(geo_));
                op.dstSeg = scratchSeg_;
                op.dstOff = static_cast<uint32_t>(k * kScratchSlotBytes);
                op.count = kDataHeaderBytes;
                ops.push_back(std::move(op));
            }
            hdrs = co_await engine_.readv(std::move(ops), kDxReadTimeout);
            if (hdrs.status.ok()) {
                break;
            }
            if (hdrs.status.code() != util::ErrorCode::kTimeout ||
                attempt >= 2) {
                co_return hdrs.status;
            }
        }
        REMORA_ASSERT(hdrs.results.size() == partials.size());
        for (size_t k = 0; k < partials.size(); ++k) {
            BlockPut &p = puts[partials[k]];
            const rmem::VectorSubResult &res = hdrs.results[k];
            if (res.status != util::ErrorCode::kOk) {
                co_return util::Status(res.status,
                                       "header fetch rejected at server");
            }
            DataSlotHeader old = DataSlotHeader::decode(res.data);
            if (old.holds(p.hdr)) {
                p.hdr.validBytes = std::max(p.hdr.validBytes, old.validBytes);
            } else {
                // The slot does not hold our block, so we know neither
                // its bytes outside our range nor its valid extent:
                // depositing anyway would mark a foreign prefix valid
                // under our key, or stamp a short extent the next read
                // takes for end-of-file. Let the server do the
                // read-modify-write instead.
                ++misses_;
                if (fallback_) {
                    // One call serves the whole write and returns.
                    // NOLINTNEXTLINE(remora-scalar-op-loop)
                    co_return co_await fallback_->write(fh, offset,
                                                        std::move(data));
                }
                co_return util::Status(
                    util::ErrorCode::kNotFound,
                    "partial write to block not in server cache");
            }
        }
    }

    std::vector<rmem::BatchBuilder::Write> subs;
    for (BlockPut &p : puts) {
        uint64_t slotOff = p.hdr.offset(geo_);

        p.hdr.flag = kSlotValid;
        p.hdr.dirty = 1;
        std::vector<uint8_t> hdrBuf(kDataHeaderBytes);
        p.hdr.encode(hdrBuf);

        auto chunkSpan =
            std::span<const uint8_t>(data).subspan(p.pos, p.chunk);
        if (p.blockOff == 0) {
            // Header and data are contiguous: one sub-op.
            std::vector<uint8_t> buf;
            buf.reserve(kDataHeaderBytes + p.chunk);
            buf.insert(buf.end(), hdrBuf.begin(), hdrBuf.end());
            buf.insert(buf.end(), chunkSpan.begin(), chunkSpan.end());
            subs.push_back(rmem::BatchBuilder::Write{
                areas_.data, static_cast<uint32_t>(slotOff),
                std::move(buf), false});
        } else {
            // Data first, tag last.
            subs.push_back(rmem::BatchBuilder::Write{
                areas_.data,
                static_cast<uint32_t>(slotOff + kDataHeaderBytes +
                                      p.blockOff),
                std::vector<uint8_t>(chunkSpan.begin(), chunkSpan.end()),
                false});
            subs.push_back(rmem::BatchBuilder::Write{
                areas_.data, static_cast<uint32_t>(slotOff),
                std::move(hdrBuf), false});
        }
    }

    rmem::BatchBuilder batch(engine_);
    for (rmem::BatchBuilder::Write &sub : subs) {
        rmem::BatchBuilder::Write retry = sub; // kept for flush-and-retry
        util::Status s = batch.addWrite(std::move(sub));
        if (s.code() == util::ErrorCode::kResource && !batch.empty()) {
            // Frame budget reached: flush what we have and retry.
            auto outcome = co_await batch.issue();
            if (!outcome.status.ok()) {
                co_return outcome.status;
            }
            s = batch.addWrite(std::move(retry));
        }
        if (!s.ok()) {
            co_return s;
        }
    }
    if (!batch.empty()) {
        auto outcome = co_await batch.issue();
        if (!outcome.status.ok()) {
            co_return outcome.status;
        }
    }
    co_return util::Status();
}

sim::Task<util::Result<std::string>>
DxBackend::readlink(FileHandle fh)
{
    LinkRecord want(fh.key());
    auto hit = co_await probe(areas_.link, std::move(want));
    if (hit.ok()) {
        co_return std::move(hit.value().rec.target);
    }
    if (fallback_ && hit.status().code() == util::ErrorCode::kNotFound) {
        co_return co_await fallback_->readlink(fh);
    }
    co_return hit.status();
}

sim::Task<util::Result<std::vector<DirEntry>>>
DxBackend::readdir(FileHandle fh, uint32_t maxBytes)
{
    uint32_t want = std::min(maxBytes, kDirSlotBytes - kDirHeaderBytes);
    auto hit = co_await probe(areas_.dir, DirSlotHeader(fh.key()),
                              kDirHeaderBytes + want);
    if (hit.ok()) {
        auto packed = std::span<const uint8_t>(hit.value().bytes)
                          .subspan(kDirHeaderBytes);
        co_return unpackDirEntries(packed,
                                   std::min(hit.value().rec.bytes, want));
    }
    if (fallback_ && hit.status().code() == util::ErrorCode::kNotFound) {
        co_return co_await fallback_->readdir(fh, maxBytes);
    }
    co_return hit.status();
}

sim::Task<util::Result<FsStat>>
DxBackend::statfs()
{
    // No fallback: a miss surfaces.
    auto hit = co_await probe(areas_.stat, StatRecord{});
    if (!hit.ok()) {
        co_return hit.status();
    }
    co_return hit.value().rec.stat;
}

// ----------------------------------------------------------------------
// MarshaledBackend and its transports
// ----------------------------------------------------------------------

sim::Task<util::Status>
MarshaledBackend::null()
{
    auto reply = co_await roundTrip(encodeCall(NullArgs{}));
    co_return decodeReply<NullRes>(reply).status();
}

sim::Task<util::Result<FileAttr>>
MarshaledBackend::getattr(FileHandle fh)
{
    auto reply = co_await roundTrip(encodeCall(GetAttrArgs{fh}));
    co_return decodeReply<FileAttr>(reply);
}

sim::Task<util::Result<LookupReply>>
MarshaledBackend::lookup(FileHandle dir, std::string name)
{
    // Encoded before the co_await: GCC 12 destroys a temporary that owns
    // memory twice when it is built inside a co_await operand.
    std::vector<uint8_t> call = encodeCall(LookupArgs{dir, std::move(name)});
    auto reply = co_await roundTrip(std::move(call));
    co_return decodeReply<LookupReply>(reply);
}

sim::Task<util::Result<std::vector<uint8_t>>>
MarshaledBackend::read(FileHandle fh, uint64_t offset, uint32_t count)
{
    auto reply = co_await roundTrip(encodeCall(ReadArgs{fh, offset, count}));
    auto res = decodeReply<ReadRes>(reply);
    if (!res.ok()) {
        co_return res.status();
    }
    co_return std::move(res.value().data);
}

sim::Task<util::Status>
MarshaledBackend::write(FileHandle fh, uint64_t offset,
                        std::vector<uint8_t> data)
{
    std::vector<uint8_t> call =
        encodeCall(WriteArgs{fh, offset, std::move(data)});
    auto reply = co_await roundTrip(std::move(call));
    co_return decodeReply<FileAttr>(reply).status();
}

sim::Task<util::Result<std::string>>
MarshaledBackend::readlink(FileHandle fh)
{
    auto reply = co_await roundTrip(encodeCall(ReadLinkArgs{fh}));
    auto res = decodeReply<ReadLinkRes>(reply);
    if (!res.ok()) {
        co_return res.status();
    }
    co_return std::move(res.value().target);
}

sim::Task<util::Result<std::vector<DirEntry>>>
MarshaledBackend::readdir(FileHandle fh, uint32_t maxBytes)
{
    auto reply = co_await roundTrip(encodeCall(ReadDirArgs{fh, maxBytes}));
    co_return decodeReply<std::vector<DirEntry>>(reply);
}

sim::Task<util::Result<FsStat>>
MarshaledBackend::statfs()
{
    auto reply = co_await roundTrip(encodeCall(StatFsArgs{FileHandle{}}));
    co_return decodeReply<FsStat>(reply);
}

sim::Task<util::Result<std::vector<uint8_t>>>
HyBackend::roundTrip(std::vector<uint8_t> body)
{
    auto reply = co_await client_.call(std::move(body));
    co_return reply;
}

sim::Task<util::Result<std::vector<uint8_t>>>
RpcBackend::roundTrip(std::vector<uint8_t> body)
{
    auto reply = co_await transport_.call(server_, 1, std::move(body));
    co_return reply;
}

} // namespace remora::dfs
