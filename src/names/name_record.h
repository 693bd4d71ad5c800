/**
 * @file
 * The name-registry record: the unit of the name service's shared state.
 *
 * Each clerk's well-known exported segment is an open-addressed hash
 * table of these fixed 64-byte records, each written and read through
 * its one layout below. The layout is identical on all
 * clerks and every clerk uses the identical hash function, so an
 * importer can compute the bucket a name should occupy on a *remote*
 * clerk and fetch it with a single remote read (§4.2).
 *
 * The first word is the record's flag/validity word. It is written
 * last on insertion and first on deletion, so the single-word
 * local-vs-remote atomicity guarantee (§3.4) gives remote readers a
 * consistent view with one writer and many readers — the paper's
 * flag-word synchronization, used verbatim here.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "net/cell.h"
#include "rmem/segment.h"
#include "util/bytes.h"

namespace remora::names {

/** Record flag-word states. */
enum class RecordFlag : uint32_t
{
    kEmpty = 0,
    kValid = 1,
    kDeleted = 2,
};

/** Maximum segment-name length the registry stores. */
inline constexpr size_t kMaxNameLen = 39;

/**
 * One registry entry, fixed 64 bytes in memory.
 *
 * The first kPrefixBytes (24) carry everything a remote probe needs —
 * flag, home node, descriptor, rights, generation, size, and a 64-bit
 * hash of the name — so a probe's read reply fits in a single ATM cell
 * (the paper: "the information that is retrieved on a lookup operation
 * fits in a single ATM cell"). The full name follows for local
 * operations and control-transfer lookups.
 */
struct NameRecord : util::FixedRecord<NameRecord, 64>
{
    /** Bytes a remote probe fetches (single-cell reply). */
    static constexpr uint32_t kPrefixBytes = 24;

    RecordFlag flag = RecordFlag::kEmpty;
    /** Exporting node. */
    net::NodeId node = 0;
    /** Descriptor slot on the exporting node. */
    rmem::SegmentId descriptor = 0;
    /** Rights the export grants. */
    rmem::Rights rights = rmem::Rights::kNone;
    /** Export generation (stale imports are detected with this). */
    rmem::Generation generation = 0;
    /** Segment size in bytes. */
    uint32_t size = 0;
    /** The segment's name (<= kMaxNameLen chars). */
    std::string name;

    /**
     * Parse just the probe prefix (kPrefixBytes); the name field is
     * left empty and nameHash() must be used for matching.
     */
    static NameRecord decodePrefix(std::span<const uint8_t> in,
                                   uint64_t *nameHash);

    /** The hash stored in the prefix for remote name matching. */
    static uint64_t nameHashOf(const std::string &name);

    /** The import handle this record describes. */
    rmem::ImportedSegment
    toHandle() const
    {
        return rmem::ImportedSegment{node, descriptor, generation, size,
                                     rights};
    }
};

/**
 * The import-handle fields a record and a control-transfer reply both
 * carry: node, descriptor, rights, generation, two pad bytes, size.
 */
template <typename Io, util::MaybeConst<NameRecord> T>
void
handleLayout(Io &io, T &rec)
{
    io.u16(rec.node);
    io.u8(rec.descriptor);
    io.u8(rec.rights);
    io.u16(rec.generation);
    io.pad(2);
    io.u32(rec.size);
}

/** The probe prefix: flag, the handle fields, the name's hash. */
template <typename Io, util::MaybeConst<NameRecord> T>
void
prefixLayout(Io &io, T &rec, uint64_t &nameHash)
{
    io.u32(rec.flag);
    handleLayout(io, rec);
    io.u64(nameHash);
}

/** A registry record: the probe prefix, then the name NUL-padded. */
template <typename Io, util::MaybeConst<NameRecord> T>
void
layout(Io &io, T &rec)
{
    uint64_t hash = Io::kDecoding ? 0 : NameRecord::nameHashOf(rec.name);
    prefixLayout(io, rec, hash);
    io.text(rec.name, NameRecord::kBytes - NameRecord::kPrefixBytes);
}

/** The cluster-wide registry hash: identical on every clerk (FNV-1a). */
uint64_t registryHash(const std::string &name);

} // namespace remora::names
