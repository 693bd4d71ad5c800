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
     * Absorb more bytes into the running checksum, eight at a time
     * (slicing-by-8); a tail shorter than eight goes byte by byte.
     */
    void update(std::span<const uint8_t> data);

    /** Final checksum over everything absorbed so far. */
    uint32_t value() const { return ~state_; }

  private:
    uint32_t state_ = 0xffffffffu;
};

} // namespace remora::util
