/**
 * @file
 * race_probe: one seeded, race-clean cluster workload under the armed
 * happens-before detector, for scripts/check.sh --race.
 *
 * Runs a three-node workload exercising each ordering primitive the
 * detector models — name-service publish/import (notification and CT
 * sequence-word edges), a CAS-guarded spin-lock counter (sync-word and
 * CAS-pair edges), and hybrid1 RPC round trips (request notification +
 * reply sequence word) — under schedule perturbation, then prints one
 * machine-parsable line:
 *
 *     seed=<N> digest=0x<16 hex> races=<M> checked=<K>
 *
 * The exit status is the race count clamped to 1, so a detector
 * regression (a lost happens-before edge surfaces as a false positive
 * here) fails the gate directly. The digest lets the driver confirm
 * that each seed really ran a distinct schedule and that reruns of the
 * same seed replay bit-identically. A malformed SEED exits 2.
 */
#include <cstdio>

#include "cluster/cluster.h"
#include "names/clerk.h"
#include "rmem/race_detector.h"
#include "rmem/sync.h"
#include "rpc/hybrid1.h"
#include "sim/task.h"
#include "util/bytes.h"
#include "util/panic.h"
#include "util/strings.h"

namespace remora {
namespace {

/** Locked read-modify-write increments of a shared counter. */
sim::Task<void>
counterWorker(rmem::RmemEngine *eng, rmem::SpinLock *lock,
              rmem::ImportedSegment page, rmem::SegmentId scratch,
              int iters)
{
    for (int k = 0; k < iters; ++k) {
        auto s = co_await lock->acquire();
        REMORA_ASSERT(s.ok());
        rmem::ReadOutcome cur = co_await eng->read(page, 64, scratch, 16, 4);
        REMORA_ASSERT(cur.status.ok());
        uint32_t v = util::ByteReader(cur.data).getU32();
        util::ByteWriter w(4);
        w.putU32(v + 1);
        auto ws = co_await eng->write(
            page, 64,
            std::vector<uint8_t>(w.bytes().begin(), w.bytes().end()));
        REMORA_ASSERT(ws.ok());
        auto r = co_await lock->release();
        REMORA_ASSERT(r.ok());
    }
}

/** Import the named segment and stream writes at it (sole writer). */
sim::Task<void>
namesWorker(names::NameClerk *clerk, rmem::RmemEngine *eng)
{
    auto imported = co_await clerk->import("probe.seg", 1);
    REMORA_ASSERT(imported.ok());
    for (int i = 0; i < 6; ++i) {
        std::vector<uint8_t> data(96, static_cast<uint8_t>(0x40 + i));
        auto ws = co_await eng->write(imported.value(), 128 * i, data);
        REMORA_ASSERT(ws.ok());
    }
}

/** Hybrid1 echo round trips. */
sim::Task<void>
rpcWorker(rpc::Hybrid1Client *client)
{
    for (uint8_t i = 0; i < 4; ++i) {
        std::vector<uint8_t> args{i, 2, 3};
        auto reply = co_await client->call(args);
        REMORA_ASSERT(reply.ok());
        REMORA_ASSERT(reply.value()[0] == i);
    }
}

int
run(uint64_t seed)
{
    // Arm before any segment is exported so every export registers.
    auto &det = rmem::RaceDetector::instance();
    det.arm({}); // non-fatal: count, report, and exit nonzero

    cluster::Cluster c({.names = {"node1", "node2", "node3"},
                        .switched = true});
    c.sim.setPerturbation(seed);

    // Name service on nodes 1 and 2; node 1 publishes, node 2 imports.
    names::NameClerk names1(*c.engines[0]);
    names::NameClerk names2(*c.engines[1]);
    names1.addPeer(2);
    names2.addPeer(1);
    mem::Process &pub = c.nodes[0]->spawnProcess("publisher");
    mem::Vaddr pubBase = pub.space().allocRegion(4096);
    auto exp = names1.exportByName(&pub, pubBase, 4096, rmem::Rights::kAll,
                                   rmem::NotifyPolicy::kNever, "probe.seg");

    // Spin-lock counter page on node 1; nodes 2 and 3 contend.
    rmem::ImportedSegment page = c.exportOn(0, "probe.page");
    struct Contender
    {
        std::unique_ptr<rmem::SpinLock> lock;
        rmem::SegmentId scratch = 0;
        sim::Task<void> task{};
    };
    std::vector<Contender> contenders(2);
    for (size_t i = 0; i < 2; ++i) {
        contenders[i].scratch = c.exportOn(i + 1, "probe.scratch").descriptor;
        contenders[i].lock = std::make_unique<rmem::SpinLock>(
            *c.engines[i + 1], page, 0, contenders[i].scratch, 0,
            static_cast<uint32_t>(0x200 + i));
    }

    // Hybrid1 RPC: server on node 1, client on node 3.
    mem::Process &serverProc = c.nodes[0]->spawnProcess("rpc-server");
    rpc::Hybrid1Server server(*c.engines[0], serverProc);
    server.setHandler(
        [](net::NodeId,
           std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });
    server.start();
    mem::Process &clientProc = c.nodes[2]->spawnProcess("rpc-client");
    rpc::Hybrid1Client client(*c.engines[2], clientProc,
                              server.requestSegmentHandle(),
                              server.allocSlot());

    // Drive everything to completion on one event queue.
    auto names = namesWorker(&names2, &*c.engines[1]);
    for (size_t i = 0; i < 2; ++i) {
        contenders[i].task =
            counterWorker(&*c.engines[i + 1], contenders[i].lock.get(),
                          page, contenders[i].scratch, 4);
    }
    auto rpcs = rpcWorker(&client);
    c.sim.run();
    REMORA_ASSERT(exp.done() && exp.result().ok());
    REMORA_ASSERT(names.done());
    REMORA_ASSERT(contenders[0].task.done() && contenders[1].task.done());
    REMORA_ASSERT(rpcs.done());

    std::printf("seed=%llu digest=0x%016llx races=%llu checked=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(c.sim.digest().value()),
                static_cast<unsigned long long>(det.raceCount()),
                static_cast<unsigned long long>(det.accessesChecked()));
    for (const auto &r : det.reports()) {
        std::fprintf(stderr, "%s\n", r.format().c_str());
    }
    return det.raceCount() == 0 ? 0 : 1;
}

} // namespace
} // namespace remora

int
main(int argc, char **argv)
{
    uint64_t seed = 0;
    if (argc > 2 || (argc == 2 && !remora::util::parseNumber(argv[1], seed))) {
        std::fprintf(stderr, "usage: race_probe [SEED]\n");
        return 2;
    }
    return remora::run(seed);
}
