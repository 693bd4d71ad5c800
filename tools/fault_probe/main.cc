/**
 * @file
 * fault_probe: one seeded lossy-cluster workload over the reliable
 * wire, for scripts/check.sh --faults.
 *
 * Builds the paper's two-node testbed, arms the deterministic fault
 * injector on both link directions, and drives notified WRITEs plus
 * remote READs whose sizes straddle the raw-cell / AAL5-frame
 * boundary, so both encodings cross the lossy link. After quiescence
 * it audits end-to-end delivery — server memory bytes, notification
 * count, and read-back contents — and prints one machine-parsable
 * line:
 *
 *     seed=<N> digest=0x<16 hex> drops=<M> retransmits=<K> undelivered=<U>
 *
 * `undelivered` counts user-visible losses (a write missing from
 * memory, a missing notification, a failed or mismatched read); the
 * exit status is that count clamped to 1, with wire abandonment
 * (sendFailures) and wedged coroutines folded in, so any recovery
 * regression fails the gate directly. The digest lets the driver
 * confirm each seed ran a distinct, replayable schedule. A malformed
 * SEED, or a DROP_RATE outside [0, 1], exits 2.
 */
#include <cstdio>
#include <vector>

#include "cluster/cluster.h"
#include "net/fault.h"
#include "rmem/notification.h"
#include "sim/task.h"
#include "util/panic.h"
#include "util/strings.h"

namespace remora {
namespace {

/** READ @p expect.size() bytes at @p off and compare. */
sim::Task<void>
readBack(rmem::RmemEngine *eng, rmem::ImportedSegment seg,
         rmem::SegmentId scratch, uint32_t off, std::vector<uint8_t> expect,
         uint64_t *mismatches)
{
    rmem::ReadOutcome out = co_await eng->read(
        seg, off, scratch, 0, static_cast<uint16_t>(expect.size()));
    if (!out.status.ok() || out.data != expect) {
        ++*mismatches;
    }
}

int
run(uint64_t seed, double dropRate)
{
    cluster::Cluster c({.names = {"nodeA", "nodeB"}});
    sim::Simulator &sim = c.sim;
    rmem::RmemEngine &engineA = *c.engines[0];
    rmem::RmemEngine &engineB = *c.engines[1];
    c.enableReliability();

    mem::Process &server = c.nodes[1]->spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(32768);
    auto seg = engineB.exportSegment(server, base, 32768, rmem::Rights::kAll,
                                     rmem::NotifyPolicy::kConditional,
                                     "probe.mem");
    REMORA_ASSERT(seg.ok());
    rmem::SegmentId scratch = c.exportOn(0, "probe.scratch").descriptor;
    sim.run();

    net::FaultPlan plan;
    plan.seed = seed;
    plan.dropRate = dropRate;
    c.network.installFaults(plan);

    // Notified writes, sizes from one raw cell up to multi-cell frames.
    constexpr int kWrites = 24;
    std::vector<std::vector<uint8_t>> expected;
    std::vector<sim::Task<util::Status>> writes;
    for (int i = 0; i < kWrites; ++i) {
        std::vector<uint8_t> data(16 + (i * 53) % 480);
        for (size_t j = 0; j < data.size(); ++j) {
            data[j] = static_cast<uint8_t>(i * 17 + j);
        }
        expected.push_back(data);
        writes.push_back(engineA.write(
            seg.value(), static_cast<uint32_t>(i) * 1024, data,
            /*notify=*/true));
    }
    sim.run();

    // Read a sample back through the same lossy link.
    uint64_t readMismatches = 0;
    std::vector<sim::Task<void>> reads;
    for (int i = 0; i < kWrites; i += 3) {
        std::vector<uint8_t> expect(expected[i].begin(),
                                    expected[i].begin() + 16);
        reads.push_back(readBack(&engineA, seg.value(), scratch,
                                 static_cast<uint32_t>(i) * 1024,
                                 std::move(expect), &readMismatches));
    }
    sim.run();

    uint64_t undelivered = readMismatches;
    for (auto &r : reads) {
        if (!r.done()) {
            ++undelivered; // read wedged: never completed
        }
    }
    for (int i = 0; i < kWrites; ++i) {
        if (!writes[i].done() || !writes[i].result().ok()) {
            ++undelivered;
            continue;
        }
        std::vector<uint8_t> got(expected[i].size());
        if (!server.space()
                 .read(base + static_cast<uint64_t>(i) * 1024, got)
                 .ok() ||
            got != expected[i]) {
            ++undelivered;
        }
    }
    auto *ch = engineB.channel(seg.value().descriptor);
    REMORA_ASSERT(ch != nullptr);
    rmem::Notification n;
    int notifications = 0;
    while (ch->tryNext(n)) {
        ++notifications;
    }
    if (notifications < kWrites) {
        undelivered += static_cast<uint64_t>(kWrites - notifications);
    }

    uint64_t abandoned =
        engineA.wire().sendFailures() + engineB.wire().sendFailures();
    if (abandoned > 0) {
        std::fprintf(stderr,
                     "fault_probe: wire abandoned %llu envelope(s)\n",
                     static_cast<unsigned long long>(abandoned));
    }
    if (sim.blockedTaskCount() > 0) {
        std::fprintf(stderr,
                     "fault_probe: %zu coroutine(s) blocked at quiescence\n",
                     sim.blockedTaskCount());
    }

    std::printf("seed=%llu digest=0x%016llx drops=%llu retransmits=%llu "
                "undelivered=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(sim.digest().value()),
                static_cast<unsigned long long>(c.network.totalFaultDrops()),
                static_cast<unsigned long long>(
                    engineA.wire().retransmits() +
                    engineB.wire().retransmits()),
                static_cast<unsigned long long>(undelivered));
    bool failed =
        undelivered > 0 || abandoned > 0 || sim.blockedTaskCount() > 0;
    return failed ? 1 : 0;
}

} // namespace
} // namespace remora

int
main(int argc, char **argv)
{
    uint64_t seed = 0;
    double dropRate = 0.05;
    bool ok = argc <= 3 &&
              (argc < 2 || remora::util::parseNumber(argv[1], seed)) &&
              (argc < 3 || remora::util::parseNumber(argv[2], dropRate)) &&
              dropRate >= 0.0 && dropRate <= 1.0;
    if (!ok) {
        std::fprintf(stderr,
                     "usage: fault_probe [SEED [DROP_RATE]]  "
                     "(DROP_RATE in [0, 1], default 0.05)\n");
        return 2;
    }
    return remora::run(seed, dropRate);
}
