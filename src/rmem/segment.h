/**
 * @file
 * Segment identity types shared across the remote-memory stack.
 *
 * A *segment* is a contiguous piece of a process's virtual memory that
 * the process has exported for remote access. The exporter's kernel
 * assigns it a small descriptor id (the paper's co-processor descriptor
 * register) and a generation number; importers on other nodes name it
 * by (node, descriptor, generation).
 */
#pragma once

#include <cstdint>
#include <string>

#include "net/cell.h"
#include "util/bytes.h"

namespace remora::rmem {

/** Kernel descriptor slot id; one octet on the wire (256 per node). */
using SegmentId = uint8_t;

/** Export generation; stale generations are rejected with a NAK. */
using Generation = uint16_t;

/** Access rights grantable on a segment (bitmask). */
enum class Rights : uint8_t
{
    kNone = 0,
    kRead = 1,
    kWrite = 2,
    kCas = 4,
    kAll = 7,
};

/** Bitwise-or of rights. */
constexpr Rights
operator|(Rights a, Rights b)
{
    return static_cast<Rights>(static_cast<uint8_t>(a) |
                               static_cast<uint8_t>(b));
}

/** True when @p held includes every right in @p needed. */
constexpr bool
hasRights(Rights held, Rights needed)
{
    return (static_cast<uint8_t>(held) & static_cast<uint8_t>(needed)) ==
           static_cast<uint8_t>(needed);
}

/**
 * Notification policy a host sets on each exported segment (§3.1.1):
 * always notify on arrival, never notify, or notify only when the
 * request's notify bit is set.
 */
enum class NotifyPolicy : uint8_t
{
    kConditional = 0,
    kAlways,
    kNever,
};

/**
 * An importer's handle to a remote segment: everything needed to
 * address it on the wire. Produced by the name service (or directly by
 * test fixtures).
 */
struct ImportedSegment
{
    /** Node that exported the segment. */
    net::NodeId node = 0;
    /** Descriptor slot on the exporting node. */
    SegmentId descriptor = 0;
    /** Generation at import time; stale after re-export/revoke. */
    Generation generation = 0;
    /** Segment size in bytes. */
    uint32_t size = 0;
    /** Rights the exporter granted. */
    Rights rights = Rights::kNone;
};

/**
 * The 8-byte record that tells a peer which of the sender's segments to
 * write back into: descriptor, a pad octet, generation, size. The node
 * and rights come from context.
 */
template <typename Io, util::MaybeConst<ImportedSegment> T>
void
layout(Io &io, T &seg)
{
    io.u8(seg.descriptor);
    io.pad(1);
    io.u16(seg.generation);
    io.u32(seg.size);
}

} // namespace remora::rmem
