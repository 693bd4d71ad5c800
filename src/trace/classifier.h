/**
 * @file
 * The control/data traffic classifier behind Table 1b.
 *
 * Table 1b splits client/server traffic into:
 *
 *  - *data* — "the data that is required by the particular distributed
 *    file system protocol": file contents, attributes, names, link
 *    targets, directory entries. If a communication primitive allowed
 *    direct protected transfers, this is all that would cross the wire.
 *  - *control* — "additional data that is transmitted because NFS uses
 *    RPC as the communication primitive": file handles, communication
 *    identifiers (xids), procedure numbers, status words, and the
 *    length/padding words the XDR marshaling imposes.
 *
 * Network-protocol-specific headers (UDP/IP) are excluded, exactly as
 * in the paper. Sizes are not estimated: each call and reply is counted
 * with util::sizeOf() over the layouts (dfs/nfs_proto.h) the file
 * service actually sends, so the classification is of real wire bytes.
 */
#pragma once

#include <cstdint>
#include <string>

#include "trace/mix.h"

namespace remora::trace {

/** Byte totals of one classification. */
struct Traffic
{
    uint64_t controlBytes = 0;
    uint64_t dataBytes = 0;

    /** Table 1b's "Control / Data" ratio column. */
    double
    ratio() const
    {
        return dataBytes == 0
                   ? 0.0
                   : static_cast<double>(controlBytes) /
                         static_cast<double>(dataBytes);
    }

    Traffic &
    operator+=(const Traffic &o)
    {
        controlBytes += o.controlBytes;
        dataBytes += o.dataBytes;
        return *this;
    }
};

/** Average component-name length of the modelled file set. */
inline constexpr uint32_t kNameLen = 12;
/** Average symlink-target length of the modelled file set. */
inline constexpr uint32_t kTargetLen = 24;

/** Per-operation parameters that determine its wire size. */
struct OpShape
{
    /** Payload bytes moved (file data, packed entries, etc.). */
    uint32_t payloadBytes = 0;
    /** Component-name length (lookup, readdir entries). */
    uint32_t nameLen = kNameLen;
    /** Symlink-target length (readlink). */
    uint32_t targetLen = kTargetLen;
};

/**
 * Classify one RPC of class @p cls with shape @p shape.
 *
 * Request and response are both counted (Table 1b is total
 * client/server traffic).
 */
Traffic classifyOp(OpClass cls, const OpShape &shape);

} // namespace remora::trace
