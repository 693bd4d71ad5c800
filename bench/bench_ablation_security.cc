/**
 * @file
 * Ablation A5: the cost of securing the wire (§3.5).
 *
 * In untrusted environments every remote read and write must be
 * encrypted. The paper: "The software emulation technique that we use
 * in our implementation will not provide adequate performance in this
 * case. However, it is feasible to do encryption and decryption in
 * hardware" (citing the AN1 controller). This bench sweeps the
 * per-word crypto cost across three regimes — none (trusted cluster),
 * AN1-style link hardware, and software DES on the 25 MHz host — and
 * reports what happens to the core operation latencies and to block
 * throughput.
 */
#include <cstdio>

#include "bench_common.h"
#include "util/strings.h"

using namespace remora;

namespace {

struct Numbers
{
    double writeUs;
    double readUs;
    double mbps;
};

Numbers
measure(const rmem::CostModel &costs)
{
    bench::TwoNode cluster(costs);
    rmem::ImportedSegment seg = cluster.exportOn(1, "sec", 1 << 18);
    rmem::ImportedSegment local = cluster.exportOn(0, "sec.l", 1 << 16);
    cluster.sim.run();

    Numbers n{};
    constexpr int kIters = 30;
    for (int i = 0; i < kIters; ++i) {
        sim::Time t0 = cluster.sim.now();
        auto w = cluster.engineA.write(seg, 0, std::vector<uint8_t>(40, 1));
        bench::run(cluster.sim, w);
        cluster.sim.run();
        n.writeUs += sim::toUsec(cluster.nodeB.cpu().busyUntil() - t0);

        t0 = cluster.sim.now();
        auto r = cluster.engineA.read(seg, 0, local.descriptor, 0, 40);
        bench::run(cluster.sim, r);
        n.readUs += sim::toUsec(cluster.sim.now() - t0);
        cluster.sim.run();
    }
    n.writeUs /= kIters;
    n.readUs /= kIters;

    auto streamer = [](bench::TwoNode *c,
                       rmem::ImportedSegment s) -> sim::Task<void> {
        for (int i = 0; i < 100; ++i) {
            auto st = co_await c->engineA.write(
                s, static_cast<uint32_t>((i % 32) * 4096),
                std::vector<uint8_t>(4096, 2));
            REMORA_ASSERT(st.ok());
        }
    };
    sim::Time t0 = cluster.sim.now();
    auto task = streamer(&cluster, seg);
    bench::run(cluster.sim, task);
    cluster.sim.run();
    double secs = static_cast<double>(cluster.nodeB.cpu().busyUntil() - t0) /
                  1e9;
    n.mbps = 100.0 * 4096 * 8 / secs / 1e6;
    return n;
}

} // namespace

int
main()
{
    bench::banner("Ablation A5: encrypting the wire (trusted vs AN1 "
                  "hardware vs software DES)");

    rmem::CostModel plain;
    rmem::CostModel hardware;
    hardware.cryptoWordCost = sim::usec(0.05);
    rmem::CostModel software;
    software.cryptoWordCost = sim::usec(2.0);

    Numbers none = measure(plain);
    Numbers hw = measure(hardware);
    Numbers sw = measure(software);

    util::TextTable table({"Crypto regime", "Write (us)", "Read (us)",
                           "Block thr (Mb/s)"});
    table.addRow({"none (trusted cluster)", bench::fmt(none.writeUs),
                  bench::fmt(none.readUs), bench::fmt(none.mbps)});
    table.addRow({"AN1-style hardware (0.05us/word)",
                  bench::fmt(hw.writeUs), bench::fmt(hw.readUs),
                  bench::fmt(hw.mbps)});
    table.addRow({"software DES (2us/word)", bench::fmt(sw.writeUs),
                  bench::fmt(sw.readUs), bench::fmt(sw.mbps)});
    std::printf("%s\n", table.render().c_str());

    std::printf("Shape checks (the paper's §3.5 argument):\n");
    std::printf("  hardware crypto costs <15%% latency: %s\n",
                hw.readUs < none.readUs * 1.15 ? "yes" : "NO");
    std::printf("  software crypto is inadequate (>2x latency, "
                "throughput collapse): %s\n",
                (sw.readUs > none.readUs * 2.0 && sw.mbps < none.mbps / 2)
                    ? "yes"
                    : "NO");

    bench::BenchReport report("ablation_security");
    report.metric("none.write_us", none.writeUs, "us");
    report.metric("none.read_us", none.readUs, "us");
    report.metric("none.throughput_mbps", none.mbps, "Mb/s");
    report.metric("hardware.write_us", hw.writeUs, "us");
    report.metric("hardware.read_us", hw.readUs, "us");
    report.metric("hardware.throughput_mbps", hw.mbps, "Mb/s");
    report.metric("software.write_us", sw.writeUs, "us");
    report.metric("software.read_us", sw.readUs, "us");
    report.metric("software.throughput_mbps", sw.mbps, "Mb/s");
    report.check("hardware_lt_15pct_latency",
                 hw.readUs < none.readUs * 1.15);
    report.check("software_inadequate",
                 sw.readUs > none.readUs * 2.0 && sw.mbps < none.mbps / 2);
    report.write();
    return 0;
}
