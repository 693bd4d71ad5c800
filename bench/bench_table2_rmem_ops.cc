/**
 * @file
 * Reproduction of Table 2: performance of the remote memory operations.
 *
 *   paper (DECstation 5000/200 + FORE TCA-100, switchless ATM):
 *     read latency          45 us      (single cell, 10 4-byte words)
 *     write latency         30 us
 *     CAS latency           38 us
 *     block-write throughput 35.4 Mb/s (4 KB blocks)
 *     notification overhead 260 us
 *
 * Methodology mirrors the paper: two directly-connected nodes, an
 * otherwise idle cluster, single-cell operations moving 40 bytes, and
 * a streaming block-write for throughput. "Latency" is initiation to
 * completion: for writes, data deposited in remote memory; for reads
 * and CAS, result deposited in local memory.
 */
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "obs/critical_path.h"
#include "obs/trace.h"
#include "util/strings.h"

using namespace remora;

namespace {

/** Exported scratch segments on both nodes. */
struct Harness
{
    bench::TwoNode cluster;
    rmem::ImportedSegment remote; // exported by server
    rmem::SegmentId localSeg;     // exported by client (read deposits)

    Harness()
        : remote(cluster.exportOn(1, "bench.remote", 1 << 20,
                                  rmem::NotifyPolicy::kConditional)),
          localSeg(cluster.exportOn(0, "bench.local", 1 << 16,
                                    rmem::NotifyPolicy::kConditional)
                       .descriptor)
    {
        cluster.sim.run(); // drain setup costs
    }
};

/** Single-cell write latency: initiation to remote-memory deposit. */
double
measureWriteUs(Harness &h, int iters)
{
    double total = 0;
    for (int i = 0; i < iters; ++i) {
        sim::Time t0 = h.cluster.sim.now();
        auto task = h.cluster.engineA.write(h.remote, 0,
                                            std::vector<uint8_t>(40, 0x5a));
        bench::run(h.cluster.sim, task);
        h.cluster.sim.run();
        // The deposit is the last CPU work the idle server performed.
        total += sim::toUsec(h.cluster.nodeB.cpu().busyUntil() - t0);
    }
    return total / iters;
}

/** Single-cell read latency: initiation to local deposit. */
double
measureReadUs(Harness &h, int iters)
{
    double total = 0;
    for (int i = 0; i < iters; ++i) {
        sim::Time t0 = h.cluster.sim.now();
        auto task = h.cluster.engineA.read(h.remote, 0, h.localSeg, 0, 40);
        bench::run(h.cluster.sim, task);
        total += sim::toUsec(h.cluster.sim.now() - t0);
        h.cluster.sim.run();
    }
    return total / iters;
}

/** CAS latency: initiation to result deposit. */
double
measureCasUs(Harness &h, int iters)
{
    double total = 0;
    for (int i = 0; i < iters; ++i) {
        sim::Time t0 = h.cluster.sim.now();
        auto task = h.cluster.engineA.cas(h.remote, 0, 0, 0, h.localSeg, 0);
        bench::run(h.cluster.sim, task);
        total += sim::toUsec(h.cluster.sim.now() - t0);
        h.cluster.sim.run();
    }
    return total / iters;
}

/** Streaming 4 KB block writes: payload bits over busy time. */
double
measureThroughputMbps(Harness &h, int blocks)
{
    auto streamer = [](Harness *hh, int n) -> sim::Task<void> {
        for (int i = 0; i < n; ++i) {
            auto s = co_await hh->cluster.engineA.write(
                hh->remote, static_cast<uint32_t>((i % 64) * 4096),
                std::vector<uint8_t>(4096, 0xcc));
            REMORA_ASSERT(s.ok());
        }
    };
    sim::Time t0 = h.cluster.sim.now();
    auto task = streamer(&h, blocks);
    bench::run(h.cluster.sim, task);
    h.cluster.sim.run();
    sim::Time t1 = h.cluster.nodeB.cpu().busyUntil();
    double seconds = static_cast<double>(t1 - t0) / 1e9;
    double bits = static_cast<double>(blocks) * 4096 * 8;
    return bits / seconds / 1e6;
}

/** Notification overhead: notified write minus plain write latency. */
double
measureNotifyOverheadUs(Harness &h, double plainWriteUs, int iters)
{
    double total = 0;
    auto *ch = h.cluster.engineB.channel(h.remote.descriptor);
    REMORA_ASSERT(ch != nullptr);
    for (int i = 0; i < iters; ++i) {
        auto waiter = ch->next(); // blocked server-side reader
        sim::Time t0 = h.cluster.sim.now();
        auto task = h.cluster.engineA.write(
            h.remote, 0, std::vector<uint8_t>(40, 0x11), /*notify=*/true);
        bench::run(h.cluster.sim, task);
        while (!waiter.done() && h.cluster.sim.step()) {
        }
        REMORA_ASSERT(waiter.done());
        total += sim::toUsec(h.cluster.sim.now() - t0) - plainWriteUs;
        h.cluster.sim.run();
    }
    return total / iters;
}

} // namespace

int
main()
{
    bench::banner("Table 2: Performance Summary of Remote Memory Operations");

    Harness h;
    constexpr int kIters = 50;

    // The three latency loops run traced, so the critical-path analyzer
    // splits each op into software, wire, controller and queueing time.
    auto &rec = obs::TraceRecorder::instance();
    rec.enable(h.cluster.sim);
    double writeUs = measureWriteUs(h, kIters);
    double readUs = measureReadUs(h, kIters);
    double casUs = measureCasUs(h, kIters);
    rec.disable();
    auto paths = obs::CriticalPathAnalyzer().analyze(rec.events());
    rec.clear();
    double mbps = measureThroughputMbps(h, 200);
    double notifyUs = measureNotifyOverheadUs(h, writeUs, kIters);

    util::TextTable table({"Metric", "Paper", "Measured", "Deviation"});
    table.addRow({"Read latency (us)", "45", bench::fmt(readUs),
                  bench::deviation(readUs, 45)});
    table.addRow({"Write latency (us)", "30", bench::fmt(writeUs),
                  bench::deviation(writeUs, 30)});
    table.addRow({"CAS latency (us)", "38", bench::fmt(casUs),
                  bench::deviation(casUs, 38)});
    table.addRow({"Throughput, 4KB blocks (Mb/s)", "35.4", bench::fmt(mbps),
                  bench::deviation(mbps, 35.4)});
    table.addRow({"Notification overhead (us)", "260", bench::fmt(notifyUs),
                  bench::deviation(notifyUs, 260)});
    std::printf("%s\n", table.render().c_str());

    std::printf("Shape checks: read > CAS > write: %s;"
                " remote write vs 2us local: %.0fx\n",
                (readUs > casUs && casUs > writeUs) ? "yes" : "NO",
                writeUs / 2.0);

    std::printf("\nCritical-path decomposition (traced, mean us/op):\n");
    std::fputs(obs::CriticalPathAnalyzer::renderText(paths).c_str(), stdout);

    bench::BenchReport report("table2_rmem_ops");
    report.metric("read.latency_us", readUs, "us", 45);
    report.metric("write.latency_us", writeUs, "us", 30);
    report.metric("cas.latency_us", casUs, "us", 38);
    report.metric("block_write.throughput_mbps", mbps, "Mb/s", 35.4);
    report.metric("notification.overhead_us", notifyUs, "us", 260);
    auto summary = obs::CriticalPathAnalyzer::summarize(paths);
    for (const char *name : {"write", "read", "cas"}) {
        const obs::CriticalPathAnalyzer::Summary &s = summary[name];
        auto meanUs = [&s](sim::Duration d) {
            return s.count ? sim::toUsec(d) / static_cast<double>(s.count)
                           : 0.0;
        };
        std::string key = std::string(name) + ".critpath";
        report.metric(key + ".software_us", meanUs(s.totals.software), "us");
        report.metric(key + ".wire_us", meanUs(s.totals.wire), "us");
        report.metric(key + ".controller_us", meanUs(s.totals.controller),
                      "us");
        report.metric(key + ".queueing_us", meanUs(s.totals.queueing), "us");
    }
    // A READ or CAS op ends at its local deposit, where the latency
    // loops stop the clock, so its mean phase total must equal the
    // measured latency (to half a nanosecond, the clock's resolution).
    // A WRITE op ends at local completion, before the remote deposit
    // that write.latency_us measures.
    auto sumsTo = [&summary](const char *name, double latencyUs) {
        const obs::CriticalPathAnalyzer::Summary &s = summary[name];
        return s.count > 0 &&
               std::abs(sim::toUsec(s.totals.total()) /
                            static_cast<double>(s.count) -
                        latencyUs) < 0.0005;
    };
    report.check("read.critpath.sums_to_latency", sumsTo("read", readUs));
    report.check("cas.critpath.sums_to_latency", sumsTo("cas", casUs));
    report.check("read_gt_cas_gt_write",
                 readUs > casUs && casUs > writeUs);
    report.note("two directly-connected nodes, idle cluster, 40-byte "
                "single-cell operations, 4KB streaming block writes");
    report.write();
    return 0;
}
