/**
 * @file
 * Ablation A8: recovery cost under injected loss.
 *
 * The reliable wire (sequence numbers, cumulative acks, retransmit
 * timers) exists so the paper's lossless-cluster protocols survive a
 * lossy one. This bench quantifies what that survival costs: the same
 * write and read workload runs over link fault plans dropping 0%, 2%,
 * 5%, and 10% of all cells, and we measure the settle latency of each
 * round plus the retransmissions the wire spent repairing the loss.
 *
 * Expected shape: the 0% row is the no-fault baseline — zero drops,
 * zero retransmits, and latencies identical to an uninstrumented run
 * (the injector is never installed, so the hot path pays nothing).
 * Each lossy row must recover every byte (delivery is audited against
 * server memory) with retransmits > 0, at a latency premium that grows
 * with the drop rate but stays bounded — loss slows the cluster down,
 * it never loses user-visible writes.
 */
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "net/fault.h"
#include "util/strings.h"

using namespace remora;

namespace {

constexpr uint32_t kRecordBytes = 256;
constexpr uint32_t kStride = 512; // keep records disjoint
constexpr int kWritesPerRound = 16;
constexpr int kReadsPerRound = 8;
constexpr int kIters = 10;

struct Harness
{
    bench::TwoNode cluster;
    mem::Process &server;
    mem::Vaddr serverBase = 0;
    rmem::ImportedSegment remote;
    rmem::SegmentId localSeg;

    explicit Harness(double dropRate)
        : server(cluster.nodeB.spawnProcess("server"))
    {
        cluster.enableReliability();
        serverBase = server.space().allocRegion(16384);
        auto h = cluster.engineB.exportSegment(
            server, serverBase, 16384, rmem::Rights::kAll,
            rmem::NotifyPolicy::kNever, "records");
        REMORA_ASSERT(h.ok());
        remote = h.value();

        localSeg = cluster.exportOn(0, "scratch", 16384).descriptor;
        cluster.sim.run();

        // The 0% row never installs an injector at all, so it doubles
        // as the machinery-off hot-path guard.
        if (dropRate > 0.0) {
            net::FaultPlan plan;
            plan.seed = 5;
            plan.dropRate = dropRate;
            cluster.network.installFaults(plan);
        }
    }
};

/** N awaited writes; settle latency includes any retransmissions. */
double
writeRound(Harness &h)
{
    auto &sim = h.cluster.sim;
    sim.run();
    sim::Time t0 = sim.now();
    auto job = [](Harness *hh) -> sim::Task<void> {
        std::vector<uint8_t> rec(kRecordBytes, 0xc3);
        for (int i = 0; i < kWritesPerRound; ++i) {
            // NOLINTNEXTLINE(remora-scalar-op-loop): per-op recovery
            // latency is the thing under measurement.
            auto st = co_await hh->cluster.engineA.write(
                hh->remote, uint32_t(i) * kStride, rec);
            REMORA_ASSERT(st.ok());
        }
    };
    auto task = job(&h);
    bench::run(sim, task);
    sim.run(); // drain retransmit timers and acks
    return sim::toUsec(sim.now() - t0);
}

/** N awaited 64-byte reads back through the same lossy link. */
double
readRound(Harness &h)
{
    auto &sim = h.cluster.sim;
    sim.run();
    sim::Time t0 = sim.now();
    auto job = [](Harness *hh) -> sim::Task<void> {
        for (int i = 0; i < kReadsPerRound; ++i) {
            // NOLINTNEXTLINE(remora-scalar-op-loop): per-op recovery
            // latency is the thing under measurement.
            auto r = co_await hh->cluster.engineA.read(
                hh->remote, uint32_t(i) * kStride, hh->localSeg,
                uint32_t(i) * kStride, 64);
            REMORA_ASSERT(r.status.ok());
        }
    };
    auto task = job(&h);
    bench::run(sim, task);
    sim.run();
    return sim::toUsec(sim.now() - t0);
}

} // namespace

int
main()
{
    bench::banner("Ablation A8: recovery cost under injected loss");

    bench::BenchReport report("ablation_faults");
    util::TextTable table({"Drop rate", "Write round (us)", "Read round (us)",
                           "Drops", "Retransmits", "Delivered"});

    struct Row
    {
        double rate;
        const char *key;
    };
    for (const Row &row : {Row{0.0, "drop_0"}, Row{0.02, "drop_2"},
                           Row{0.05, "drop_5"}, Row{0.10, "drop_10"}}) {
        Harness h(row.rate);
        double writeUs = 0;
        double readUs = 0;
        for (int i = 0; i < kIters; ++i) {
            writeUs += writeRound(h);
            readUs += readRound(h);
        }
        writeUs /= kIters;
        readUs /= kIters;

        // Delivery audit: every record landed intact despite the loss.
        bool delivered = true;
        std::vector<uint8_t> expect(kRecordBytes, 0xc3);
        for (int i = 0; i < kWritesPerRound; ++i) {
            std::vector<uint8_t> got(kRecordBytes);
            if (!h.server.space()
                     .read(h.serverBase + uint64_t(i) * kStride, got)
                     .ok() ||
                got != expect) {
                delivered = false;
            }
        }
        uint64_t drops = h.cluster.network.totalFaultDrops();
        uint64_t retransmits = h.cluster.engineA.wire().retransmits() +
                               h.cluster.engineB.wire().retransmits();

        table.addRow({bench::fmt(row.rate * 100, 0) + "%",
                      bench::fmt(writeUs), bench::fmt(readUs),
                      std::to_string(drops), std::to_string(retransmits),
                      delivered ? "all" : "LOST"});
        std::string key = row.key;
        report.metric(key + ".write_round_us", writeUs, "us");
        report.metric(key + ".read_round_us", readUs, "us");
        report.metric(key + ".drops", double(drops), "");
        report.metric(key + ".retransmits", double(retransmits), "");
        report.check(key + "_all_delivered", delivered);
        report.check(key + "_no_abandonment",
                     h.cluster.engineA.wire().sendFailures() == 0 &&
                         h.cluster.engineB.wire().sendFailures() == 0);
        if (row.rate == 0.0) {
            // Machinery off: nothing dropped, nothing retransmitted.
            report.check("drop_0_no_drops", drops == 0);
            report.check("drop_0_no_retransmits", retransmits == 0);
        } else {
            // Loss actually happened and was actually repaired.
            report.check(key + "_loss_occurred", drops > 0);
            report.check(key + "_repaired_by_retransmit", retransmits > 0);
        }
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Shape check: zero cost at 0%% loss; every lossy row "
                "delivers all records with retransmits > 0.\n");
    report.write();
    return 0;
}
