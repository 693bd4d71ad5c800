#include "dfs/push_cache.h"

#include "util/panic.h"

namespace remora::dfs {

ClerkPushCache::ClerkPushCache(rmem::RmemEngine &engine, mem::Process &owner,
                               const PushCacheGeometry &geometry)
    : engine_(engine), owner_(owner), geo_(geometry)
{
    uint32_t bytes = segmentBytes(geo_);
    base_ = owner_.space().allocRegion(bytes);
    auto h = engine_.exportSegment(owner_, base_, bytes,
                                   rmem::Rights::kWrite | rmem::Rights::kRead,
                                   rmem::NotifyPolicy::kNever, "push.cache");
    if (!h.ok()) {
        REMORA_FATAL("push cache: export failed: " + h.status().toString());
    }
    handle_ = h.value();
}

std::optional<FileAttr>
ClerkPushCache::findAttr(FileHandle fh) const
{
    AttrRecord want(fh.key());
    AttrRecord rec = load(want);
    if (!rec.holds(want)) {
        return std::nullopt;
    }
    ++hits_;
    return rec.attr;
}

bool
ClerkPushCache::findBlock(FileHandle fh, uint64_t blockNo,
                          std::vector<uint8_t> &out) const
{
    DataSlotHeader want(fh.key(), blockNo);
    DataSlotHeader hdr = load(want);
    if (!hdr.holds(want)) {
        return false;
    }
    out.resize(hdr.validBytes);
    util::Status s = owner_.space().read(
        base_ + offsetOf(geo_, want) + kDataHeaderBytes, out);
    REMORA_ASSERT(s.ok());
    ++hits_;
    return true;
}

} // namespace remora::dfs
