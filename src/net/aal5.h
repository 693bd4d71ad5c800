/**
 * @file
 * AAL5 segmentation and reassembly.
 *
 * Frames (CS-PDUs) are carried as a run of cells on one (vpi, vci) pair;
 * the last cell is flagged in its PTI. The CS-PDU is the frame payload,
 * zero padding, and an 8-octet trailer (UU, CPI, 16-bit length, CRC-32)
 * aligned so the total is a multiple of 48. Reassembly verifies the CRC
 * first (wire damage) and then the length field (peer framing bug); each
 * failure is counted separately and the frame dropped. When a CRC
 * failure is really two frames glued together by a lost cell — the end
 * flag of frame N never arrived, so frame N+1's cells piled onto N's
 * partial buffer — feed() resynchronizes on the tail: the glued PDU's
 * trailer belongs to frame N+1, so its LEN field locates a candidate
 * tail PDU whose own CRC proves the recovery. Frame N stays lost (the
 * recovery layers above retransmit it); frame N+1 is delivered instead
 * of being poisoned.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/cell.h"
#include "obs/metrics.h"
#include "sim/stats.h"

namespace remora::net {

/** Maximum frame payload AAL5 can carry (16-bit length field). */
inline constexpr size_t kMaxFrameBytes = 65535;

/**
 * Split @p frame into AAL5 cells addressed dst=@p vpi, src=@p vci.
 *
 * @param vpi Destination node id placed in every cell.
 * @param vci Source node id placed in every cell.
 * @param frame Frame payload, at most kMaxFrameBytes.
 * @return Cells in transmission order; last one has the end flag.
 */
std::vector<Cell> aal5Segment(uint16_t vpi, uint16_t vci,
                              std::span<const uint8_t> frame);

/** Number of cells a frame of @p payloadBytes occupies on the wire. */
constexpr size_t
aal5CellCount(size_t payloadBytes)
{
    return (payloadBytes + 8 + Cell::kPayloadBytes - 1) / Cell::kPayloadBytes;
}

/**
 * Per-source AAL5 reassembler.
 *
 * Feed cells as they drain from the RX FIFO; when an end-of-frame cell
 * completes a valid CS-PDU the frame payload is returned. Cells from
 * different sources (VCIs) reassemble independently.
 */
class Aal5Reassembler
{
  public:
    /** A completed frame and the source it came from. */
    struct Frame
    {
        uint16_t srcVci;
        /** Trace op carried by the frame's final cell (0 = untraced). */
        uint64_t traceOp = 0;
        std::vector<uint8_t> payload;
    };

    /**
     * Absorb one cell.
     *
     * @return A completed frame if @p cell finished one, otherwise
     *         nullopt (mid-frame cell, or a corrupt frame that was
     *         dropped and counted).
     */
    std::optional<Frame> feed(const Cell &cell);

    /** Frames dropped because the CRC-32 check failed. */
    uint64_t crcErrors() const { return crcErrors_.value(); }

    /**
     * Frames whose CRC verified but whose LEN field did not fit the
     * CS-PDU. Distinct from crcErrors(): a length mismatch with a good
     * CRC is a peer framing bug, not wire damage.
     */
    uint64_t lengthErrors() const { return lengthErrors_.value(); }

    /** Frames successfully reassembled. */
    uint64_t framesOk() const { return framesOk_.value(); }

    /**
     * Times a CRC failure turned out to be two frames glued by a lost
     * cell and the tail frame was recovered intact (see feed()).
     */
    uint64_t framesResynced() const { return framesResynced_.value(); }

    /** Register "<prefix>.crc_errors" etc. */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** Check and unwrap the CS-PDU @p pdu that @p cell completed. */
    std::optional<Frame> complete(const Cell &cell,
                                  const std::vector<uint8_t> &pdu);

    /** Attempt tail recovery of a glued PDU after a CRC failure. */
    std::optional<Frame> resync(const Cell &cell,
                                const std::vector<uint8_t> &pdu,
                                uint16_t length);

    /**
     * Each source's frame so far. A source keeps its buffer between
     * frames, so reassembly allocates only while a buffer grows.
     */
    std::unordered_map<uint16_t, std::vector<uint8_t>> partial_;
    sim::Counter crcErrors_;
    sim::Counter lengthErrors_;
    sim::Counter framesOk_;
    sim::Counter framesResynced_;
};

} // namespace remora::net
