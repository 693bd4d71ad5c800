#include "net/aal5.h"

#include <algorithm>
#include <cstring>

#include "util/bytes.h"
#include "util/crc.h"
#include "util/panic.h"

namespace remora::net {

std::vector<Cell>
aal5Segment(uint16_t vpi, uint16_t vci, std::span<const uint8_t> frame)
{
    REMORA_ASSERT(frame.size() <= kMaxFrameBytes);

    // The CS-PDU (payload | pad | UU CPI LEN(2) CRC32(4)) is laid
    // straight into the cells, whose payloads start zeroed, so the pad
    // needs no writes. The CRC covers everything before its own field.
    size_t cells = aal5CellCount(frame.size());
    size_t padBytes = cells * Cell::kPayloadBytes - frame.size() - 8;
    uint8_t trailer[8] = {0, 0, // CPCS-UU, CPI
                          static_cast<uint8_t>(frame.size()),
                          static_cast<uint8_t>(frame.size() >> 8)};
    static constexpr uint8_t kZeros[Cell::kPayloadBytes] = {};
    util::Crc32 crc;
    crc.update(frame);
    crc.update(std::span<const uint8_t>(kZeros, padBytes));
    crc.update(std::span<const uint8_t>(trailer, 4));
    uint32_t sum = crc.value();
    for (int i = 0; i < 4; ++i) {
        trailer[4 + i] = static_cast<uint8_t>(sum >> (8 * i));
    }

    std::vector<Cell> out(cells);
    for (size_t i = 0; i < cells; ++i) {
        Cell &c = out[i];
        c.vpi = vpi;
        c.vci = vci;
        size_t at = i * Cell::kPayloadBytes;
        if (at < frame.size()) {
            std::memcpy(c.payload.data(), frame.data() + at,
                        std::min(Cell::kPayloadBytes, frame.size() - at));
        }
    }
    Cell &last = out.back();
    std::memcpy(last.payload.data() + Cell::kPayloadBytes - 8, trailer, 8);
    last.setLastOfFrame(true);
    return out;
}

std::optional<Aal5Reassembler::Frame>
Aal5Reassembler::feed(const Cell &cell)
{
    std::vector<uint8_t> &buf = partial_[cell.vci];
    buf.insert(buf.end(), cell.payload.begin(), cell.payload.end());
    if (!cell.lastOfFrame()) {
        return std::nullopt;
    }
    std::optional<Frame> f = complete(cell, buf);
    buf.clear(); // keeps its capacity for the source's next frame
    return f;
}

std::optional<Aal5Reassembler::Frame>
Aal5Reassembler::complete(const Cell &cell, const std::vector<uint8_t> &pdu)
{
    if (pdu.size() < 8) {
        crcErrors_.inc();
        return std::nullopt;
    }
    util::ByteReader trailer(
        std::span<const uint8_t>(pdu.data() + pdu.size() - 8, 8));
    trailer.skip(2); // UU, CPI
    uint16_t length = trailer.getU16();
    uint32_t wireCrc = trailer.getU32();

    uint32_t calcCrc = util::crc32Ieee(
        std::span<const uint8_t>(pdu.data(), pdu.size() - 4));
    if (calcCrc != wireCrc) {
        crcErrors_.inc();
        return resync(cell, pdu, length);
    }
    if (length + 8ul > pdu.size()) {
        // CRC verified over these exact bytes, so the wire is innocent:
        // the sender wrote a LEN that does not fit its own CS-PDU.
        lengthErrors_.inc();
        return std::nullopt;
    }

    framesOk_.inc();
    Frame f;
    f.srcVci = cell.vci;
    f.traceOp = cell.traceOp;
    f.payload.assign(pdu.begin(), pdu.begin() + length);
    return f;
}

std::optional<Aal5Reassembler::Frame>
Aal5Reassembler::resync(const Cell &cell, const std::vector<uint8_t> &pdu,
                        uint16_t length)
{
    // If the CRC failure is two glued frames (frame N lost its end-flag
    // cell, so frame N+1 accumulated behind it), the trailer we just
    // read belongs to frame N+1 and its LEN names the tail exactly:
    // the last aal5CellCount(LEN) cells of the glue are frame N+1's
    // CS-PDU, whose own CRC must verify for the recovery to be real.
    size_t candidateBytes = aal5CellCount(length) * Cell::kPayloadBytes;
    if (candidateBytes >= pdu.size()) {
        return std::nullopt; // nothing shorter to resync onto
    }
    auto candidate = std::span<const uint8_t>(
        pdu.data() + pdu.size() - candidateBytes, candidateBytes);
    util::ByteReader candTrailer(candidate.subspan(candidateBytes - 4, 4));
    uint32_t candWireCrc = candTrailer.getU32();
    uint32_t candCalcCrc =
        util::crc32Ieee(candidate.subspan(0, candidateBytes - 4));
    if (candCalcCrc != candWireCrc) {
        return std::nullopt; // genuine corruption, not a glue
    }
    framesResynced_.inc();
    framesOk_.inc();
    Frame f;
    f.srcVci = cell.vci;
    f.traceOp = cell.traceOp;
    f.payload.assign(candidate.begin(), candidate.begin() + length);
    return f;
}

void
Aal5Reassembler::registerStats(obs::MetricRegistry &reg,
                               const std::string &prefix) const
{
    reg.add(prefix + ".crc_errors", crcErrors_);
    reg.add(prefix + ".length_errors", lengthErrors_);
    reg.add(prefix + ".frames_ok", framesOk_);
    reg.add(prefix + ".frames_resynced", framesResynced_);
}

} // namespace remora::net
