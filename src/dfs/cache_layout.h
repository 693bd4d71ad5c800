/**
 * @file
 * Layout and placement of the server's exported cache areas (§5.1).
 *
 * "Our system model organizes the cache into different distinct areas,
 * each containing different types of information ... This organization
 * allows the client-side server clerk to probe server data structures"
 * — the areas below are exported segments whose internal layout is a
 * cluster-wide convention, so a clerk can compute exactly where a datum
 * lives on the server and fetch it with one remote read:
 *
 *  - file data      : direct-mapped slots of one 8 KB block + header
 *  - name lookup    : (directory, name) -> child handle + attributes
 *  - file attributes: handle -> attributes
 *  - directory entries: whole-directory entry lists (the paper notes
 *    the departmental server's entire directory contents fit in
 *    ~2.5 MB, so caching them all is feasible)
 *  - symbolic links : handle -> target (the extra ~40 KB noted in §5.1)
 *  - fs statistics  : one small record
 *
 * Every record leads with a flag word that the writer updates last
 * (insert) or first (invalidate); single-word atomicity (§3.4) then
 * guarantees remote readers a consistent view. Areas are direct-mapped
 * caches: a tag mismatch at the clerk is a miss, answered by falling
 * back to control transfer.
 *
 * Each record's bytes are its one two-way layout below, which both the
 * server's writes and the clerks' reads go through; the attribute and
 * statistics blocks inside them are the NFS replies' (nfs_proto.h).
 * Beside each layout the record states its placement once, for the
 * server's writers, the DX probes, the scavenger and the clerks' push
 * caches alike: offset(geo), where its slot starts in an area sized by
 * geo; key(), the fields a record read from that slot must match for
 * holds(want) to call it a hit of @p want (a record with only its key
 * set); and tag(), which tells two records of one slot apart when a
 * writer counts an eviction.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <tuple>

#include "dfs/file_store.h"
#include "dfs/nfs_proto.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace remora::dfs {

/** Sizing of the server's cache areas. */
struct CacheGeometry
{
    uint32_t attrBuckets = 1024;
    uint32_t nameBuckets = 2048;
    uint32_t dataSlots = 256;
    uint32_t dirSlots = 128;
    uint32_t linkSlots = 256;
};

/** Record flag-word states shared by all areas. */
inline constexpr uint32_t kSlotEmpty = 0;
inline constexpr uint32_t kSlotValid = 1;

/** Bytes per attribute record. */
inline constexpr uint32_t kAttrRecBytes = 80;
/** Bytes per name-lookup record. */
inline constexpr uint32_t kNameRecBytes = 160;
/** Bytes of the data-slot header preceding each cached block. */
inline constexpr uint32_t kDataHeaderBytes = 32;
/** Bytes per data slot (header + one block). */
inline constexpr uint32_t kDataSlotBytes = kDataHeaderBytes + kBlockBytes;
/** Bytes per directory slot (header + packed entries). */
inline constexpr uint32_t kDirSlotBytes = 4096;
/** Bytes of the directory-slot header. */
inline constexpr uint32_t kDirHeaderBytes = 32;
/** Bytes per symlink record. */
inline constexpr uint32_t kLinkRecBytes = 128;
/** Bytes of the statistics record. */
inline constexpr uint32_t kStatRecBytes = 64;
/** Longest name a name-lookup record holds. */
inline constexpr size_t kMaxCachedNameLen = 79;
/** Longest target a symlink record holds. */
inline constexpr size_t kMaxLinkTargetLen = 107;

/**
 * Data-area slot of (file handle key, block number). The other areas'
 * slots are their records' offset() alone.
 */
inline uint32_t
dataSlot(uint64_t fhKey, uint64_t blockNo, uint32_t slots)
{
    return static_cast<uint32_t>(
        util::mix64(fhKey ^ (blockNo * 0x9e3779b97f4a7c15ull)) % slots);
}

// ----------------------------------------------------------------------
// Records: each encode()s into and decode()s from its fixed slot through
// its layout, zero-filled past the last field.
// ----------------------------------------------------------------------

/** A cache-area record: a fixed slot of Bytes bytes led by its flag. */
template <typename R, uint32_t Bytes>
struct SlotRecord : util::FixedRecord<R, Bytes>
{
    uint32_t flag = kSlotEmpty;

    /** True when the slot holds a record. */
    bool valid() const { return flag == kSlotValid; }

    /** The hit test: valid, and exactly @p want's key(). */
    bool
    holds(const R &want) const
    {
        return valid() && static_cast<const R &>(*this).key() == want.key();
    }
};

/** Attribute record: flag, handle tag, attributes. */
struct AttrRecord : SlotRecord<AttrRecord, kAttrRecBytes>
{
    uint64_t fhKey = 0;
    FileAttr attr;

    explicit AttrRecord(uint64_t fh = 0) : fhKey(fh) {}

    template <typename G>
    uint64_t
    offset(const G &geo) const
    {
        return util::mix64(fhKey) % geo.attrBuckets * kAttrRecBytes;
    }

    auto key() const { return std::tie(fhKey); }

    uint64_t tag() const { return fhKey; }
};

template <typename Io, util::MaybeConst<AttrRecord> T>
void
layout(Io &io, T &rec)
{
    io.u32(rec.flag);
    io.pad(4);
    io.u64(rec.fhKey);
    layout(io, rec.attr);
}

/** Name-lookup record: flag, (dir, name) tag, child handle + attrs. */
struct NameLookupRecord : SlotRecord<NameLookupRecord, kNameRecBytes>
{
    uint64_t dirKey = 0;
    uint64_t childKey = 0;
    FileAttr childAttr;
    std::string name;

    explicit NameLookupRecord(uint64_t dir = 0, std::string n = {})
        : dirKey(dir), name(std::move(n))
    {}

    template <typename G>
    uint64_t
    offset(const G &geo) const
    {
        return util::mix64(dirKey ^ util::fnv1a(name)) % geo.nameBuckets *
               kNameRecBytes;
    }

    auto key() const { return std::tie(dirKey, name); }

    uint64_t tag() const { return dirKey ^ util::fnv1a(name); }
};

template <typename Io, util::MaybeConst<NameLookupRecord> T>
void
layout(Io &io, T &rec)
{
    io.u32(rec.flag);
    io.pad(4);
    io.u64(rec.dirKey);
    io.u64(rec.childKey);
    layout(io, rec.childAttr);
    io.bytes8(rec.name, kMaxCachedNameLen);
}

/**
 * Data-slot header: flag, dirty, (handle, block) tag, valid bytes. The
 * block's bytes follow it in the slot.
 */
struct DataSlotHeader : SlotRecord<DataSlotHeader, kDataHeaderBytes>
{
    uint32_t dirty = 0;
    uint64_t fhKey = 0;
    uint64_t blockNo = 0;
    uint32_t validBytes = 0;

    explicit DataSlotHeader(uint64_t fh = 0, uint64_t block = 0)
        : fhKey(fh), blockNo(block)
    {}

    /** Byte offset of data slot @p slot. */
    static uint64_t
    slotOffset(uint32_t slot)
    {
        return static_cast<uint64_t>(slot) * kDataSlotBytes;
    }

    template <typename G>
    uint64_t
    offset(const G &geo) const
    {
        return slotOffset(dataSlot(fhKey, blockNo, geo.dataSlots));
    }

    auto key() const { return std::tie(fhKey, blockNo); }

    uint64_t tag() const { return fhKey ^ blockNo; }
};

template <typename Io, util::MaybeConst<DataSlotHeader> T>
void
layout(Io &io, T &hdr)
{
    io.u32(hdr.flag);
    io.u32(hdr.dirty);
    io.u64(hdr.fhKey);
    io.u64(hdr.blockNo);
    io.u32(hdr.validBytes);
}

/**
 * Directory-slot header: flag, dir tag, packed-entry byte count. The
 * packed entries follow it in the slot.
 */
struct DirSlotHeader : SlotRecord<DirSlotHeader, kDirHeaderBytes>
{
    uint64_t dirKey = 0;
    uint32_t bytes = 0;
    uint32_t entryCount = 0;

    explicit DirSlotHeader(uint64_t dir = 0) : dirKey(dir) {}

    template <typename G>
    uint64_t
    offset(const G &geo) const
    {
        return util::mix64(dirKey ^ 0xd1b54a32d192ed03ull) % geo.dirSlots *
               kDirSlotBytes;
    }

    auto key() const { return std::tie(dirKey); }

    uint64_t tag() const { return dirKey; }
};

template <typename Io, util::MaybeConst<DirSlotHeader> T>
void
layout(Io &io, T &hdr)
{
    io.u32(hdr.flag);
    io.pad(4);
    io.u64(hdr.dirKey);
    io.u32(hdr.bytes);
    io.u32(hdr.entryCount);
}

/** Symlink record: flag, handle tag, target path. */
struct LinkRecord : SlotRecord<LinkRecord, kLinkRecBytes>
{
    uint64_t fhKey = 0;
    std::string target;

    explicit LinkRecord(uint64_t fh = 0) : fhKey(fh) {}

    template <typename G>
    uint64_t
    offset(const G &geo) const
    {
        return util::mix64(fhKey ^ 0x2545f4914f6cdd1dull) % geo.linkSlots *
               kLinkRecBytes;
    }

    auto key() const { return std::tie(fhKey); }

    uint64_t tag() const { return fhKey; }
};

template <typename Io, util::MaybeConst<LinkRecord> T>
void
layout(Io &io, T &rec)
{
    io.u32(rec.flag);
    io.u64(rec.fhKey);
    io.bytes32(rec.target, kMaxLinkTargetLen);
}

/**
 * Statistics record: the area's one slot, so it has no key and no tag,
 * and refreshing it is neither an insert nor an eviction.
 */
struct StatRecord : SlotRecord<StatRecord, kStatRecBytes>
{
    FsStat stat;

    template <typename G>
    uint64_t
    offset(const G &) const
    {
        return 0;
    }

    auto key() const { return std::tuple<>(); }
};

template <typename Io, util::MaybeConst<StatRecord> T>
void
layout(Io &io, T &rec)
{
    io.u32(rec.flag);
    io.pad(4);
    layout(io, rec.stat);
}

} // namespace remora::dfs
