/**
 * @file
 * XDR-style argument marshaling for the RPC baseline.
 *
 * Everything is encoded in 4-byte-aligned units, the way ONC RPC stubs
 * did; the padding and length words this adds are exactly the
 * "marshaling overheads imposed by the RPC system" that Table 1b counts
 * as control traffic, so the traffic classifier reads sizes off these
 * encoders.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace remora::rpc {

/** Encoder producing XDR-aligned wire bytes. */
class Marshal
{
  public:
    Marshal() = default;

    /** Append a 32-bit unsigned integer. */
    void putU32(uint32_t v) { w_.putU32(v); }

    /** Append a 64-bit unsigned integer (as two XDR words). */
    void putU64(uint64_t v) { w_.putU64(v); }

    /** Append a length-prefixed string, padded to 4 bytes. */
    void putString(const std::string &s) { w_.putString(s); }

    /** Append length-prefixed opaque bytes, padded to 4 bytes. */
    void putOpaque(std::span<const uint8_t> data);

    /** Append fixed-length opaque bytes, padded to 4 bytes. */
    void putFixed(std::span<const uint8_t> data);

    /** Bytes encoded so far. */
    size_t size() const { return w_.size(); }

    /** Take the encoded buffer. */
    std::vector<uint8_t> take() { return w_.take(); }

  private:
    util::ByteWriter w_;
};

/** Decoder over XDR-aligned wire bytes. */
class Unmarshal
{
  public:
    /** Decode from @p data, which must outlive the decoder. */
    explicit Unmarshal(std::span<const uint8_t> data) : r_(data) {}

    /** Decode a 32-bit unsigned integer. */
    uint32_t getU32() { return r_.getU32(); }

    /** Decode a 64-bit unsigned integer. */
    uint64_t getU64() { return r_.getU64(); }

    /** Decode a length-prefixed string. */
    std::string getString() { return r_.getString(); }

    /** Decode length-prefixed opaque bytes. */
    std::vector<uint8_t> getOpaque();

    /** Decode fixed-length opaque bytes. */
    std::vector<uint8_t> getFixed(size_t len);

    /** True while all decodes stayed in bounds. */
    bool ok() const { return r_.ok(); }

    /** Bytes not yet consumed. */
    size_t remaining() const { return r_.remaining(); }

  private:
    util::ByteReader r_;
};

} // namespace remora::rpc
