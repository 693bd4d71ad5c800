/**
 * @file
 * Cyclic-redundancy checks used by the simulated ATM substrate.
 *
 * CRC-32 implements the IEEE 802.3 polynomial used by the AAL5 trailer
 * (and by the reliable wire's envelopes).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace remora::util {

/**
 * Compute the IEEE 802.3 CRC-32 (reflected, init ~0, final xor ~0).
 *
 * This is the checksum the AAL5 trailer carries over the whole CS-PDU.
 *
 * @param data Bytes covered by the check.
 * @return 32-bit checksum.
 */
uint32_t crc32Ieee(std::span<const uint8_t> data);

/**
 * Incrementally updatable CRC-32, for streaming reassembly.
 *
 * Feed bytes with update() as cells arrive; value() yields the same
 * result as crc32Ieee() over the concatenation.
 */
class Crc32
{
  public:
    /**
     * Absorb more bytes into the running checksum. A run of
     * kFoldMinBytes or more folds 64 bytes at a time with carry-less
     * multiplies when the CPU has them (detail::crc32FoldAvailable());
     * anything else goes eight bytes at a time (slicing-by-8). Both
     * give the same value.
     */
    void update(std::span<const uint8_t> data);

    /** Final checksum over everything absorbed so far. */
    uint32_t value() const { return ~state_; }

  private:
    uint32_t state_ = 0xffffffffu;
};

/** Shortest run update() hands to the carry-less-multiply fold. */
inline constexpr size_t kFoldMinBytes = 64;

/**
 * The two CRC-32 kernels behind Crc32::update, on the raw register
 * (init ~0, no final xor). Exposed so tests can hold the fold to the
 * slicing-by-8 reference.
 */
namespace detail {

/** Advance @p reg over @p data eight bytes at a time (any CPU). */
uint32_t crc32Slice8(uint32_t reg, std::span<const uint8_t> data);

/**
 * True when this CPU runs crc32Fold(): x86 with PCLMULQDQ and SSE4.1,
 * detected once per process.
 */
bool crc32FoldAvailable();

/**
 * Advance @p reg over @p data, which holds at least kFoldMinBytes, by
 * folding 64-byte blocks with PCLMULQDQ; the last 0-15 bytes go through
 * crc32Slice8(). Call only when crc32FoldAvailable().
 */
uint32_t crc32Fold(uint32_t reg, std::span<const uint8_t> data);

} // namespace detail

} // namespace remora::util
