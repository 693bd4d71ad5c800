/**
 * @file
 * The ATM cell: the unit of transmission on every remora wire.
 *
 * A cell is 53 octets on the wire: a 5-octet header (VPI, VCI, PTI,
 * CLP, HEC) and a 48-octet payload. remora models the header fields the
 * FORE testbed's driver used, and charges links for all 53 octets:
 *
 *  - VPI carries the *destination* node id (the switch routes on it),
 *  - VCI carries the *source* node id (receivers demultiplex AAL5
 *    reassembly per source),
 *  - PTI bit 0 is the AAL5 "end of CS-PDU" marker.
 *
 * Cells travel as this struct, never as 53 serialized octets, so CLP
 * and the HEC are not modelled (DESIGN.md §7).
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace remora::net {

/** Cluster-unique node address (assigned by the Network builder). */
using NodeId = uint16_t;

/** One 53-octet ATM cell. */
struct Cell
{
    /** Octets of header on the wire. */
    static constexpr size_t kHeaderBytes = 5;
    /** Octets of payload in every cell. */
    static constexpr size_t kPayloadBytes = 48;
    /** Total octets on the wire. */
    static constexpr size_t kCellBytes = kHeaderBytes + kPayloadBytes;

    /** Destination node id (routing key). 12 usable bits. */
    uint16_t vpi = 0;
    /** Source node id (reassembly demux key). 16 bits. */
    uint16_t vci = 0;
    /** Payload type indicator; bit 0 set marks the last cell of a frame. */
    uint8_t pti = 0;
    /**
     * Trace correlation id riding alongside the cell (0 = untraced).
     * Models the op tag a real adapter would carry in a proprietary
     * header extension; it is NOT one of the 53 wire octets, so the
     * calibrated single-cell size properties are untouched. Cells
     * travel by value through the FIFOs, links, and switch, so the tag
     * survives end to end.
     */
    uint64_t traceOp = 0;
    /** Payload octets. */
    std::array<uint8_t, kPayloadBytes> payload{};

    /** True when this cell terminates an AAL5 frame. */
    bool lastOfFrame() const { return (pti & 0x1) != 0; }

    /** Mark / clear the AAL5 end-of-frame indication. */
    void
    setLastOfFrame(bool last)
    {
        pti = last ? (pti | 0x1) : (pti & ~0x1);
    }
};

} // namespace remora::net
