/**
 * @file
 * Endian-explicit byte cursors used for all wire formats.
 *
 * Every on-wire structure in remora (remote-memory protocol headers,
 * AAL5 trailers, RPC marshaling) is encoded through these cursors
 * rather than by casting structs, so layouts are identical on every
 * host and every field width is explicit at the encode site. Wire
 * order is little-endian (the DECstation R3000 ran little-endian
 * Ultrix; the paper's heterogeneity section treats byte-swap on PIO as
 * the accommodation for other orders, which remora does not model).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace remora::util {

/** Growable encode cursor appending little-endian fields to a buffer. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    /** Start with reserved capacity to avoid reallocation in hot paths. */
    explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }

    /** Append a single octet. */
    void putU8(uint8_t v) { buf_.push_back(v); }

    /** Append a 16-bit value, little-endian. */
    void putU16(uint16_t v);

    /** Append a 32-bit value, little-endian. */
    void putU32(uint32_t v);

    /** Append a 64-bit value, little-endian. */
    void putU64(uint64_t v);

    /** Append raw bytes verbatim. */
    void putBytes(std::span<const uint8_t> data);

    /** Append @p count zero octets (padding). */
    void putZeros(size_t count);

    /**
     * Append a length-prefixed (u32) string, padded to 4-byte alignment,
     * XDR style.
     */
    void putString(const std::string &s);

    /** Number of bytes encoded so far. */
    size_t size() const { return buf_.size(); }

    /** View of the encoded bytes; invalidated by further puts. */
    std::span<const uint8_t> bytes() const { return buf_; }

    /** Move the encoded buffer out, leaving this writer empty. */
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Decode cursor over a byte span.
 *
 * Reads past the end set an overflow flag and return zeros rather than
 * touching out-of-bounds memory; callers check ok() once after decoding
 * a unit (mirroring how the kernel emulation validates a whole request).
 */
class ByteReader
{
  public:
    /** Read from @p data, which must outlive the reader. */
    explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

    /** Decode one octet. */
    uint8_t getU8();

    /** Decode a little-endian 16-bit value. */
    uint16_t getU16();

    /** Decode a little-endian 32-bit value. */
    uint32_t getU32();

    /** Decode a little-endian 64-bit value. */
    uint64_t getU64();

    /** View (without copying) @p count bytes and advance. */
    std::span<const uint8_t> viewBytes(size_t count);

    /** Decode a u32-length-prefixed, 4-byte-padded string. */
    std::string getString();

    /** Skip @p count bytes. */
    void skip(size_t count);

    /** Bytes not yet consumed. */
    size_t remaining() const { return data_.size() - pos_; }

    /** True while no decode has run past the end of the buffer. */
    bool ok() const { return !overflow_; }

  private:
    /** Check that @p count more bytes exist; set overflow otherwise. */
    bool ensure(size_t count);

    std::span<const uint8_t> data_;
    size_t pos_ = 0;
    bool overflow_ = false;
};

} // namespace remora::util
