#include "util/crc.h"

#include <array>

#include "util/panic.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define REMORA_CRC_FOLD 1
#endif

namespace remora::util {
namespace {

using Crc32Table = std::array<uint32_t, 256>;

/**
 * Build the slicing-by-8 tables for the reflected IEEE CRC-32 poly.
 * Table 0 is the classic byte-at-a-time table; table k advances a byte
 * through k further zero bytes, so eight lookups fold eight bytes.
 */
constexpr std::array<Crc32Table, 8>
makeCrc32Tables()
{
    std::array<Crc32Table, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
        }
        t[0][i] = crc;
    }
    for (size_t k = 1; k < t.size(); ++k) {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
        }
    }
    return t;
}

/** Little-endian 32-bit load (compiles to one load on LE hosts). */
uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

constexpr auto kCrc32Tables = makeCrc32Tables();

#ifdef REMORA_CRC_FOLD

#define REMORA_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

REMORA_CLMUL_TARGET __m128i
load128(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** Fold lane @p x forward by the distance @p k encodes, onto @p next. */
REMORA_CLMUL_TARGET __m128i
foldOnto(__m128i x, __m128i k, __m128i next)
{
    __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/**
 * Fold @p n bytes (a multiple of 16, at least 64) into @p reg with
 * carry-less multiplies: Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
 * bit-reflected domain of the IEEE polynomial. Four 128-bit lanes fold
 * 64 bytes per step, collapse to one lane that folds any further 16-byte
 * blocks, and a Barrett reduction takes the remainder to 32 bits.
 */
REMORA_CLMUL_TARGET uint32_t
foldBlocks(uint32_t reg, const uint8_t *p, size_t n)
{
    // x^(4*128+32) and x^(4*128-32) mod P, reflected: fold by 64 bytes.
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    // x^(128+32) and x^(128-32) mod P: fold by 16 bytes.
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    // x^64 mod P: the 64-to-32-bit fold.
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    // P and mu = floor(x^64 / P), reflected, for Barrett.
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load128(p),
                               _mm_cvtsi32_si128(static_cast<int>(reg)));
    __m128i x2 = load128(p + 16);
    __m128i x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    p += 64;
    n -= 64;
    for (; n >= 64; p += 64, n -= 64) {
        x1 = foldOnto(x1, k1k2, load128(p));
        x2 = foldOnto(x2, k1k2, load128(p + 16));
        x3 = foldOnto(x3, k1k2, load128(p + 32));
        x4 = foldOnto(x4, k1k2, load128(p + 48));
    }
    x1 = foldOnto(x1, k3k4, x2);
    x1 = foldOnto(x1, k3k4, x3);
    x1 = foldOnto(x1, k3k4, x4);
    for (; n >= 16; p += 16, n -= 16) {
        x1 = foldOnto(x1, k3k4, load128(p));
    }

    // 128 to 64 bits, then 64 to 32 (each appends 32 zero bits).
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(
        _mm_srli_si128(x1, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
    // Barrett reduction to the 32-bit remainder.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
    return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif // REMORA_CRC_FOLD

} // namespace

uint32_t
crc32Ieee(std::span<const uint8_t> data)
{
    Crc32 crc;
    crc.update(data);
    return crc.value();
}

void
Crc32::update(std::span<const uint8_t> data)
{
    state_ = data.size() >= kFoldMinBytes && detail::crc32FoldAvailable()
                 ? detail::crc32Fold(state_, data)
                 : detail::crc32Slice8(state_, data);
}

namespace detail {

uint32_t
crc32Slice8(uint32_t reg, std::span<const uint8_t> data)
{
    const auto &t = kCrc32Tables;
    uint32_t crc = reg;
    const uint8_t *p = data.data();
    size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        uint32_t lo = crc ^ loadLe32(p);
        uint32_t hi = loadLe32(p + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
              t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
              t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) {
        crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
    }
    return crc;
}

bool
crc32FoldAvailable()
{
#ifdef REMORA_CRC_FOLD
    static const bool kAvailable = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return kAvailable;
#else
    return false;
#endif
}

uint32_t
crc32Fold(uint32_t reg, std::span<const uint8_t> data)
{
    REMORA_ASSERT(data.size() >= kFoldMinBytes);
#ifdef REMORA_CRC_FOLD
    size_t blocks = data.size() & ~size_t{15};
    return crc32Slice8(foldBlocks(reg, data.data(), blocks),
                       data.subspan(blocks));
#else
    return crc32Slice8(reg, data);
#endif
}

} // namespace detail

} // namespace remora::util
