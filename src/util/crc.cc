#include "util/crc.h"

#include <array>

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
    const auto &t = kCrc32Tables;
    uint32_t crc = state_;
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
    state_ = crc;
}

} // namespace remora::util
