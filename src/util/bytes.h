/**
 * @file
 * Endian-explicit byte cursors and the two-way layouts built on them.
 *
 * Every on-wire structure in remora (remote-memory protocol messages,
 * AAL5 trailers, RPC marshaling, the records of exported cache areas)
 * is encoded through these cursors rather than by casting structs, so
 * layouts are identical on every host and every field width is explicit.
 * Wire order is little-endian (the DECstation R3000 ran little-endian
 * Ultrix; the paper's heterogeneity section treats byte-swap on PIO as
 * the accommodation for other orders, which remora does not model).
 *
 * A format that is both written and read is written once, as a two-way
 * layout:
 *
 *     template <typename Io, util::MaybeConst<Rec> T>
 *     void layout(Io &io, T &rec) { io.u32(rec.a); io.bytes16(rec.b); }
 *
 * Through Put (T const) each call appends its field to a ByteWriter;
 * through Get each call reads the field back into the record; through
 * Size each call only counts its bytes. Decoding keeps the cursor's
 * rules: a read past the end, or a failed check(), stops the decode
 * where it stands and later reads return zeros.
 */
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/panic.h"

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

    /** Append length-prefixed (u32) opaque bytes, padded to 4 bytes. */
    void putOpaque(std::span<const uint8_t> data);

    /** Number of bytes encoded so far. */
    size_t size() const { return buf_.size(); }

    /** View of the encoded bytes; invalidated by further puts. */
    std::span<const uint8_t> bytes() const { return buf_; }

    /** Move the encoded buffer out, leaving this writer empty. */
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** A ByteWriter stand-in that counts the bytes instead of keeping them. */
class ByteCounter
{
  public:
    void putU8(uint8_t) { ++size_; }
    void putU16(uint16_t) { size_ += 2; }
    void putU32(uint32_t) { size_ += 4; }
    void putU64(uint64_t) { size_ += 8; }
    void putBytes(std::span<const uint8_t> data) { size_ += data.size(); }
    void putZeros(size_t count) { size_ += count; }
    void putString(const std::string &s) { size_ += 4 + padded(s.size()); }
    void putOpaque(std::span<const uint8_t> d) { size_ += 4 + padded(d.size()); }

    /** Bytes counted so far. */
    size_t size() const { return size_; }

  private:
    static size_t padded(size_t n) { return (n + 3) / 4 * 4; }

    size_t size_ = 0;
};

/**
 * Decode cursor over a byte span.
 *
 * Reads past the end set an overflow flag and return zeros rather than
 * touching out-of-bounds memory; callers check ok() once after decoding
 * a unit (mirroring how the kernel emulation validates a whole request).
 * Once a decode has failed, every later read returns zeros and consumes
 * nothing, so position() reports where the fault was found.
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

    /** Decode u32-length-prefixed, 4-byte-padded opaque bytes. */
    std::vector<uint8_t> getOpaque();

    /** Skip @p count bytes. */
    void skip(size_t count);

    /** Fail the decode here: the position stays, later reads yield zeros. */
    void fail() { overflow_ = true; }

    /** Bytes consumed so far (the whole span after a read past the end). */
    size_t position() const { return pos_; }

    /** Bytes not yet consumed. */
    size_t remaining() const { return data_.size() - pos_; }

    /** True while no decode has failed. */
    bool ok() const { return !overflow_; }

  private:
    /** Check that @p count more bytes exist; set overflow otherwise. */
    bool ensure(size_t count);

    std::span<const uint8_t> data_;
    size_t pos_ = 0;
    bool overflow_ = false;
};

/** T is R, or const R: the record parameter of a two-way layout. */
template <typename T, typename R>
concept MaybeConst = std::same_as<std::remove_const_t<T>, R>;

/** The bytes of a string, for the cursors. */
inline std::span<const uint8_t>
asBytes(const std::string &s)
{
    return {reinterpret_cast<const uint8_t *>(s.data()), s.size()};
}

/**
 * The encoding side of a two-way layout: each call appends its field to
 * @p W, a ByteWriter (Put) or a ByteCounter (Size).
 */
template <typename W>
class PutTo
{
  public:
    /** Fields flow out of the record. */
    static constexpr bool kDecoding = false;

    explicit PutTo(W &w) : w_(w) {}

    template <typename V>
    void u8(const V &v) { w_.putU8(static_cast<uint8_t>(v)); }

    template <typename V>
    void u16(const V &v) { w_.putU16(static_cast<uint16_t>(v)); }

    /** Three octets, little-endian; the value must fit. */
    template <typename V>
    void
    u24(const V &v)
    {
        auto x = static_cast<uint32_t>(v);
        REMORA_ASSERT(x < (1u << 24));
        w_.putU16(static_cast<uint16_t>(x));
        w_.putU8(static_cast<uint8_t>(x >> 16));
    }

    template <typename V>
    void u32(const V &v) { w_.putU32(static_cast<uint32_t>(v)); }

    template <typename V>
    void u64(const V &v) { w_.putU64(static_cast<uint64_t>(v)); }

    /**
     * A u8 (u16, u32) length, then that many bytes of @p c. At most
     * @p max bytes may be written; decoding keeps at most @p max.
     */
    template <typename C>
    void bytes8(const C &c, size_t max = SIZE_MAX) { run<uint8_t>(c, max); }

    template <typename C>
    void bytes16(const C &c, size_t max = SIZE_MAX) { run<uint16_t>(c, max); }

    template <typename C>
    void bytes32(const C &c, size_t max = SIZE_MAX) { run<uint32_t>(c, max); }

    /** An XDR string: u32 length, the bytes, zeros to a 4-byte boundary. */
    void string(const std::string &s) { w_.putString(s); }

    /** XDR opaque bytes: laid out as string() lays out a string. */
    void opaque(std::span<const uint8_t> v) { w_.putOpaque(v); }

    /** @p n bytes of zeros; decoding skips them. */
    void pad(size_t n) { w_.putZeros(n); }

    /** @p s NUL-padded to @p width bytes, with room for at least one NUL. */
    void
    text(const std::string &s, size_t width)
    {
        REMORA_ASSERT(s.size() < width);
        w_.putBytes(asBytes(s));
        w_.putZeros(width - s.size());
    }

    /**
     * Exactly @p width bytes: what @p fields writes, then zeros. Decoding
     * takes all of them or fails without reading any.
     */
    template <typename F>
    void
    block(size_t width, F fields)
    {
        size_t start = w_.size();
        fields();
        REMORA_ASSERT(w_.size() - start <= width);
        w_.putZeros(width - (w_.size() - start));
    }

    /** Bit @p mask of @p octet stands for @p value. */
    template <typename F>
    void
    flag(uint8_t &octet, const F &value, uint8_t mask)
    {
        if (value) {
            octet |= mask;
        }
    }

    /** The @p n elements of @p c, each through @p element. */
    template <typename C, typename F>
    void
    each(const C &c, size_t n, F element)
    {
        REMORA_ASSERT(c.size() == n);
        for (const auto &e : c) {
            element(e);
        }
    }

    /** A condition the bytes must meet: decoding fails without it. */
    void check(bool cond, const char * = nullptr) { REMORA_ASSERT(cond); }

    /** Bytes a layout cannot take. */
    [[noreturn]] void fail(const char *why) { REMORA_PANIC(why); }

  private:
    template <typename Len, typename C>
    void
    run(const C &c, size_t max)
    {
        REMORA_ASSERT(c.size() <= std::min<size_t>(
                                      max, std::numeric_limits<Len>::max()));
        if constexpr (sizeof(Len) == 1) {
            w_.putU8(static_cast<uint8_t>(c.size()));
        } else if constexpr (sizeof(Len) == 2) {
            w_.putU16(static_cast<uint16_t>(c.size()));
        } else {
            w_.putU32(static_cast<uint32_t>(c.size()));
        }
        w_.putBytes({reinterpret_cast<const uint8_t *>(c.data()), c.size()});
    }

    W &w_;
};

/** Encodes a layout's fields into a ByteWriter. */
using Put = PutTo<ByteWriter>;

/** Counts the bytes a layout encodes to. */
using Size = PutTo<ByteCounter>;

/** The decoding side of a two-way layout: reads each field back. */
class Get
{
  public:
    /** Fields flow into the record. */
    static constexpr bool kDecoding = true;

    explicit Get(ByteReader &r) : r_(r) {}

    template <typename V>
    void u8(V &v) { v = static_cast<V>(r_.getU8()); }

    template <typename V>
    void u16(V &v) { v = static_cast<V>(r_.getU16()); }

    template <typename V>
    void
    u24(V &v)
    {
        uint32_t low = r_.getU16();
        uint32_t high = r_.getU8();
        v = static_cast<V>(low | (high << 16));
    }

    template <typename V>
    void u32(V &v) { v = static_cast<V>(r_.getU32()); }

    template <typename V>
    void u64(V &v) { v = static_cast<V>(r_.getU64()); }

    template <typename C>
    void bytes8(C &c, size_t max = SIZE_MAX) { take(c, r_.getU8(), max); }

    template <typename C>
    void bytes16(C &c, size_t max = SIZE_MAX) { take(c, r_.getU16(), max); }

    template <typename C>
    void bytes32(C &c, size_t max = SIZE_MAX) { take(c, r_.getU32(), max); }

    void string(std::string &s) { s = r_.getString(); }

    void opaque(std::vector<uint8_t> &v) { v = r_.getOpaque(); }

    void pad(size_t n) { r_.skip(n); }

    /** The text up to the first NUL of the next @p width bytes. */
    void
    text(std::string &s, size_t width)
    {
        auto field = r_.viewBytes(width);
        s.assign(field.begin(), std::find(field.begin(), field.end(), 0));
    }

    template <typename F>
    void
    block(size_t width, F fields)
    {
        if (r_.remaining() < width) {
            r_.skip(width);
            return;
        }
        size_t start = r_.position();
        fields();
        r_.skip(width - (r_.position() - start));
    }

    template <typename F>
    void
    flag(uint8_t octet, F &value, uint8_t mask)
    {
        value = (octet & mask) != 0;
    }

    /** Replace @p c with @p n elements, stopping at a failed one. */
    template <typename C, typename F>
    void
    each(C &c, size_t n, F element)
    {
        c.clear();
        c.reserve(std::min(n, r_.remaining()));
        for (size_t i = 0; i < n && ok(); ++i) {
            element(c.emplace_back());
        }
    }

    /** Fail the decode here unless @p cond holds (or it already failed). */
    void
    check(bool cond, const char *why = nullptr)
    {
        if (ok() && !cond) {
            fail(why);
        }
    }

    /** Fail the decode here, for the reason @p why. */
    void
    fail(const char *why)
    {
        why_ = why;
        r_.fail();
    }

    bool ok() const { return r_.ok(); }

    /** The reason fail() gave, or null (a truncation or a bare check). */
    const char *why() const { return why_; }

  private:
    /** @p len bytes into @p c, or the first @p max of them. */
    template <typename C>
    void
    take(C &c, size_t len, size_t max)
    {
        auto v = r_.viewBytes(std::min(len, max));
        c.assign(v.begin(), v.end());
    }

    ByteReader &r_;
    const char *why_ = nullptr;
};

/** Append @p v to @p w through its layout. */
template <typename T>
void
put(ByteWriter &w, const T &v)
{
    Put io(w);
    layout(io, v);
}

/** Decode a T from @p r through its layout; check r.ok() after. */
template <typename T>
T
get(ByteReader &r)
{
    T v{};
    Get io(r);
    layout(io, v);
    return v;
}

/** Bytes @p v encodes to through its layout. */
template <typename T>
size_t
sizeOf(const T &v)
{
    ByteCounter counter;
    Size io(counter);
    layout(io, v);
    return counter.size();
}

/**
 * encode()/decode() of a record R that fills a slot of exactly Bytes
 * bytes in exported memory: its layout's fields, then zeros.
 */
template <typename R, uint32_t Bytes>
struct FixedRecord
{
    /** Encoded size of a record. */
    static constexpr uint32_t kBytes = Bytes;

    /** Serialize into the first kBytes of @p out. */
    void
    encode(std::span<uint8_t> out) const
    {
        REMORA_ASSERT(out.size() >= Bytes);
        ByteWriter w(Bytes);
        Put io(w);
        io.block(Bytes, [&] { layout(io, static_cast<const R &>(*this)); });
        std::memcpy(out.data(), w.bytes().data(), Bytes);
    }

    /** Parse from the first kBytes of @p in. */
    static R
    decode(std::span<const uint8_t> in)
    {
        REMORA_ASSERT(in.size() >= Bytes);
        ByteReader r(in.first(Bytes));
        return get<R>(r);
    }
};

} // namespace remora::util
