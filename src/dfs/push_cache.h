/**
 * @file
 * Eager server→clerk push: the §5.1 "Write Requests Only" alternative.
 *
 * "The first alternative, and the simplest, is for the source of the
 * data (server or clerk) to supply data to the destination using
 * remote writes with no notifications at all." And §3.2: "it is
 * possible for the server to eagerly update data on its client-side
 * clerk."
 *
 * A ClerkPushCache is a clerk-side exported segment laid out as small
 * attribute and data areas (the same record formats as the server's
 * areas, dimensioned down). The server keeps a subscriber list; when
 * it refreshes one of its own cache entries it also remote-writes the
 * record into every subscriber — pure data transfer, no notification,
 * no acknowledgement. A clerk whose pushed copy is fresh serves reads
 * from *local* memory: zero wire traffic, zero server involvement.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dfs/cache_layout.h"
#include "dfs/file_store.h"
#include "rmem/engine.h"
#include "util/panic.h"

namespace remora::dfs {

/** Sizing of a clerk's pushed-cache areas. */
struct PushCacheGeometry
{
    /** Attribute buckets. */
    uint32_t attrBuckets = 128;
    /** 8 KB data slots. */
    uint32_t dataSlots = 16;
};

/** Clerk-side receptacle for server pushes. */
class ClerkPushCache
{
  public:
    /**
     * @param engine The clerk node's engine.
     * @param owner The clerk process (provides the memory).
     * @param geometry Area sizing; must match what the server is told.
     */
    ClerkPushCache(rmem::RmemEngine &engine, mem::Process &owner,
                   const PushCacheGeometry &geometry = {});

    /** Handle the server needs to push into this cache. */
    rmem::ImportedSegment handle() const { return handle_; }

    /** Geometry (give to the server alongside the handle). */
    const PushCacheGeometry &geometry() const { return geo_; }

    /** Locally look up pushed attributes; nullopt on miss. */
    std::optional<FileAttr> findAttr(FileHandle fh) const;

    /**
     * Locally look up a pushed data block.
     *
     * @param fh Target file.
     * @param blockNo Block number.
     * @param out Receives the valid bytes of the block.
     * @return True on a fresh local hit.
     */
    bool findBlock(FileHandle fh, uint64_t blockNo,
                   std::vector<uint8_t> &out) const;

    /** Local hits served so far. */
    uint64_t hits() const { return hits_; }

    /** Byte offset of @p rec's bucket in a cache of @p geometry. */
    static uint64_t
    offsetOf(const PushCacheGeometry &geometry, const AttrRecord &rec)
    {
        return rec.offset(geometry);
    }

    /** Byte offset of @p hdr's slot: the data area follows the
     *  attribute area. */
    static uint64_t
    offsetOf(const PushCacheGeometry &geometry, const DataSlotHeader &hdr)
    {
        return static_cast<uint64_t>(geometry.attrBuckets) * kAttrRecBytes +
               hdr.offset(geometry);
    }

    /** Total segment bytes for @p geometry. */
    static uint32_t
    segmentBytes(const PushCacheGeometry &geometry)
    {
        return geometry.attrBuckets * kAttrRecBytes +
               geometry.dataSlots * kDataSlotBytes;
    }

  private:
    /** The record at @p want's slot of this cache. */
    template <typename R>
    R
    load(const R &want) const
    {
        std::vector<uint8_t> buf(R::kBytes);
        util::Status s =
            owner_.space().read(base_ + offsetOf(geo_, want), buf);
        REMORA_ASSERT(s.ok());
        return R::decode(buf);
    }

    rmem::RmemEngine &engine_;
    mem::Process &owner_;
    PushCacheGeometry geo_;
    mem::Vaddr base_ = 0;
    rmem::ImportedSegment handle_;
    mutable uint64_t hits_ = 0;
};

} // namespace remora::dfs
