/**
 * @file
 * XDR-style argument marshaling for the RPC baseline.
 *
 * Everything is encoded in 4-byte-aligned units, the way ONC RPC stubs
 * did; the padding and length words this adds are exactly the
 * "marshaling overheads imposed by the RPC system" that Table 1b counts
 * as control traffic. The marshaling cursors are the byte cursors
 * themselves: putString/putOpaque and their getters (the string() and
 * opaque() fields of a layout) add the XDR padding.
 */
#pragma once

#include "util/bytes.h"

namespace remora::rpc {

/** Encoder producing XDR-aligned wire bytes. */
using Marshal = util::ByteWriter;

/** Decoder over XDR-aligned wire bytes. */
using Unmarshal = util::ByteReader;

} // namespace remora::rpc
