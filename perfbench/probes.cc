/**
 * @file
 * Host-time probes: each times one layer's public functions from the
 * outside, on inputs sized from the workload's own counters (heap
 * depth, frame and message sizes). A probe reports the median of
 * several batches, in nanoseconds per unit of work.
 */
#include <algorithm>
#include <chrono>
#include <vector>

#include "net/aal5.h"
#include "perfbench.h"
#include "rmem/protocol.h"
#include "rpc/marshal.h"
#include "sim/random.h"
#include "trace/workload.h"
#include "util/crc.h"

namespace remora::perfbench {

double
hostSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

namespace probes {

namespace {

constexpr int kBatches = 5;
constexpr double kBatchSeconds = 0.004;

/** Results land here so the optimiser cannot drop the probed calls. */
volatile uint64_t gSink = 0;

/**
 * Median over batches of (seconds / units) for @p body, which does one
 * unit of work per call and returns a value folded into the sink.
 */
template <typename Body>
double
nsPerUnit(double unitsPerCall, Body body)
{
    std::vector<double> perUnit;
    for (int b = 0; b < kBatches; ++b) {
        uint64_t calls = 0;
        uint64_t acc = 0;
        double t0 = hostSeconds();
        double t1 = t0;
        while (t1 - t0 < kBatchSeconds) {
            for (int i = 0; i < 16; ++i) {
                acc += body();
            }
            calls += 16;
            t1 = hostSeconds();
        }
        gSink = gSink + acc;
        perUnit.push_back((t1 - t0) * 1e9 /
                          (static_cast<double>(calls) * unitsPerCall));
    }
    std::sort(perUnit.begin(), perUnit.end());
    return perUnit[perUnit.size() / 2];
}

std::vector<uint8_t>
filled(size_t n)
{
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
        v[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    return v;
}

} // namespace

double
simCoreNsPerEvent(double pendingMean, double tombstoneFrac)
{
    sim::Simulator s;
    sim::Random rng(42);
    double depth = std::max(1.0, pendingMean);
    auto tombstones = static_cast<size_t>(
        depth * std::clamp(tombstoneFrac, 0.0, 1.0));
    auto live = std::max<size_t>(1, static_cast<size_t>(depth) - tombstones);
    auto delay = [&rng] {
        return static_cast<sim::Duration>(1 + rng.uniformInt(100000));
    };
    // Cancelled events parked beyond the probe's horizon keep the heap
    // as deep as the workload's; the live ones cycle through step().
    for (size_t i = 0; i < tombstones; ++i) {
        s.cancel(s.scheduleAt(sim::kTimeMax / 2, [] {}));
    }
    for (size_t i = 0; i < live; ++i) {
        s.schedule(delay(), [] {});
    }
    return nsPerUnit(1.0, [&] {
        s.schedule(delay(), [] {});
        s.step();
        return s.eventsProcessed();
    });
}

double
crcNsPerByte(size_t bytes)
{
    std::vector<uint8_t> buf = filled(std::max<size_t>(bytes, 1));
    return nsPerUnit(static_cast<double>(buf.size()),
                     [&buf] { return util::crc32Ieee(buf); });
}

double
aal5NsPerCell(size_t frameBytes)
{
    std::vector<uint8_t> frame = filled(std::max<size_t>(frameBytes, 1));
    net::Aal5Reassembler reasm;
    double cells = static_cast<double>(net::aal5CellCount(frame.size()));
    return nsPerUnit(cells, [&] {
        uint64_t got = 0;
        for (const net::Cell &c : net::aal5Segment(3, 2, frame)) {
            if (auto f = reasm.feed(c)) {
                got += f->payload.size();
            }
        }
        return got;
    });
}

double
codecNsPerMsg(size_t msgBytes)
{
    // One data-carrying WRITE of the workload's mean message size and
    // one fixed-size READ request: the two shapes every op sends.
    rmem::WriteReq w;
    w.descriptor = 1;
    w.offset = 64;
    w.data = filled(std::clamp<size_t>(msgBytes, 1, rmem::kBlockDataMax));
    rmem::ReadReq r;
    r.srcDescriptor = 1;
    r.count = 40;
    r.reqId = 7;
    std::vector<rmem::Message> msgs = {w, r};
    return nsPerUnit(2.0, [&msgs] {
        uint64_t got = 0;
        for (const rmem::Message &m : msgs) {
            auto bytes = rmem::encodeMessage(m);
            auto back = rmem::decodeMessage(bytes);
            got += bytes.size() + (back.ok() ? 1 : 0);
        }
        return got;
    });
}

double
marshalNsPerCall(size_t bodyBytes)
{
    std::vector<uint8_t> body = filled(bodyBytes);
    return nsPerUnit(1.0, [&body] {
        rpc::Marshal m;
        m.putU32(6); // NFS READ
        m.putU32(12);
        m.putU32(1);
        m.putU64(8192);
        m.putU32(static_cast<uint32_t>(body.size()));
        m.putOpaque(body);
        std::vector<uint8_t> wire = m.take();
        rpc::Unmarshal u(wire);
        uint64_t got = u.getU32() + u.getU32() + u.getU32() + u.getU64() +
                       u.getU32();
        got += u.getOpaque().size();
        return got + (u.ok() ? 1 : 0);
    });
}

double
genNsPerOp(uint64_t seed)
{
    trace::WorkloadGen gen(seed);
    return nsPerUnit(1.0, [&gen] {
        trace::Op op = gen.next();
        return uint64_t(op.bytes) + op.fileIdx;
    });
}

} // namespace probes

} // namespace remora::perfbench
