/**
 * @file
 * remora: the simulator's command line, one subcommand per probe.
 *
 *     remora explore [--list] [--json] [--metrics] [--max-schedules N]
 *                    [--step-budget N] [--no-reduction] [--no-shrink]
 *                    [workload...]
 *     remora race [SEED]
 *     remora faults [SEED [DROP_RATE]]
 *     remora prof [--iters N] [--probe] [--json] [--trace FILE]
 *
 * explore, race and faults are correctness gates: each exits 1 when it
 * finds a bug, and tests/CMakeLists.txt runs them as ctests (race and
 * faults once per seed 0-7). prof is the critical-path profiler behind
 * the README's "profiling an op end-to-end" walkthrough. Any malformed
 * input — an unknown subcommand, flag or workload, a bad number — prints
 * the usage and exits 2 before anything runs.
 */
#include <climits>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/workloads.h"
#include "names/clerk.h"
#include "net/fault.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rmem/notification.h"
#include "rmem/race_detector.h"
#include "rmem/sync.h"
#include "rpc/hybrid1.h"
#include "rpc/transport.h"
#include "sim/explorer.h"
#include "sim/task.h"
#include "util/bytes.h"
#include "util/json.h"
#include "util/panic.h"
#include "util/strings.h"

namespace remora {
namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: remora explore [--list] [--json] [--metrics] "
        "[--max-schedules N]\n"
        "                      [--step-budget N] [--no-reduction] "
        "[--no-shrink]\n"
        "                      [workload...]\n"
        "       remora race [SEED]\n"
        "       remora faults [SEED [DROP_RATE]]\n"
        "       remora prof [--iters N] [--probe] [--json] [--trace FILE]\n"
        "explore defaults to every clean registry workload; N is at least "
        "1;\n"
        "DROP_RATE is in [0, 1], default 0.05\n");
    return 2;
}

/** The procedure every RPC and Hybrid-1 server here runs. */
sim::Task<std::vector<uint8_t>>
echo(net::NodeId, std::vector<uint8_t> args)
{
    co_return args;
}

// ----------------------------------------------------------------------
// explore: systematic schedule exploration over cluster workloads.
//
// Explores workloads registered in src/cluster/workloads.cc: the
// ScheduleExplorer re-executes each one once per same-instant tie-break
// schedule (DFS with sleep-set reduction) and checks every terminal
// state for deadlocks, lost wakeups, and blocked-forever coroutines.
// The clean registry must explore to zero findings; the seeded
// workloads (deadlock, lost-wakeup) carry planted bugs and demonstrate
// detection plus prefix shrinking. Exit status is the total finding
// count clamped to 1, except that seeded workloads' findings are
// expected and reported but do not fail the run.
// ----------------------------------------------------------------------

struct ExploreOptions
{
    sim::ExplorerOptions explorer;
    bool list = false;
    bool json = false;
    bool metrics = false;
    std::vector<const cluster::Workload *> workloads;
};

/** Write @p choices as a JSON array, the form both output modes print. */
void
putChoices(util::JsonWriter &w, const std::vector<uint32_t> &choices)
{
    w.beginArray();
    for (uint32_t c : choices) {
        w.value(uint64_t{c});
    }
    w.endArray();
}

int
explore(const ExploreOptions &opts)
{
    // Explorers are kept alive to the end: the metric registry borrows
    // their counters ("mc.<workload>.*").
    std::vector<std::unique_ptr<sim::ScheduleExplorer>> explorers;
    auto &metrics = obs::MetricRegistry::global();
    uint64_t unexpected = 0;
    uint64_t totalSchedules = 0;
    uint64_t totalFindings = 0;
    util::JsonWriter json;
    json.beginObject().key("workloads").beginArray();

    for (const cluster::Workload *entry : opts.workloads) {
        explorers.push_back(std::make_unique<sim::ScheduleExplorer>(
            entry->fn, opts.explorer));
        sim::ScheduleExplorer &ex = *explorers.back();
        sim::ExploreResult res = ex.explore();

        std::string prefix = std::string("mc.") + entry->name + ".";
        metrics.add(prefix + "schedules", ex.schedulesRun());
        metrics.add(prefix + "decisions", ex.decisionsHit());
        metrics.add(prefix + "findings", ex.findingsFound());
        metrics.add(prefix + "sleep_skips", ex.sleepSkips());
        metrics.add(prefix + "shrink_runs", ex.shrinkRuns());

        totalSchedules += res.schedules;
        totalFindings += res.findings.size();
        if (!entry->seeded) {
            unexpected += res.findings.size();
        }

        if (opts.json) {
            char digest[19];
            std::snprintf(digest, sizeof digest, "0x%016llx",
                          static_cast<unsigned long long>(res.firstDigest));
            json.beginObject()
                .kv("name", entry->name)
                .kv("schedules", res.schedules)
                .kv("decisions", res.decisions)
                .kv("sleep_skips", res.sleepSkips)
                .kv("max_depth", res.maxDepth)
                .kv("exhausted", res.exhausted)
                .kv("capped", res.capped)
                .kv("digest", digest)
                .key("findings")
                .beginArray();
            for (const sim::ExplorerFinding &f : res.findings) {
                json.beginObject()
                    .kv("kind", sim::HangReport::kindName(f.report.kind))
                    .kv("schedule", f.schedule)
                    .kv("detail", f.report.detail)
                    .key("parties")
                    .beginArray();
                for (const std::string &party : f.report.parties) {
                    json.value(party);
                }
                json.endArray().key("choices");
                putChoices(json, f.choices);
                json.key("shrunk");
                putChoices(json, f.shrunk);
                json.endObject();
            }
            json.endArray().endObject();
        } else {
            std::printf("workload=%s schedules=%llu decisions=%llu "
                        "prunes=%llu findings=%zu digest=0x%016llx%s%s\n",
                        entry->name,
                        static_cast<unsigned long long>(res.schedules),
                        static_cast<unsigned long long>(res.decisions),
                        static_cast<unsigned long long>(res.sleepSkips),
                        res.findings.size(),
                        static_cast<unsigned long long>(res.firstDigest),
                        res.capped ? " capped" : "",
                        res.exhausted ? " exhausted" : "");
            for (const sim::ExplorerFinding &f : res.findings) {
                util::JsonWriter shrunk;
                putChoices(shrunk, f.shrunk);
                std::printf("finding workload=%s schedule=%llu "
                            "shrunk=%s of %zu choices\n",
                            entry->name,
                            static_cast<unsigned long long>(f.schedule),
                            shrunk.str().c_str(), f.choices.size());
                std::printf("%s", f.report.format().c_str());
            }
        }
    }

    if (opts.json) {
        json.endArray()
            .kv("total_schedules", totalSchedules)
            .kv("total_findings", totalFindings)
            .kv("unexpected_findings", unexpected)
            .endObject();
        std::printf("%s\n", json.str().c_str());
    } else {
        std::printf("mc workloads=%zu schedules=%llu findings=%llu "
                    "unexpected=%llu\n",
                    opts.workloads.size(),
                    static_cast<unsigned long long>(totalSchedules),
                    static_cast<unsigned long long>(totalFindings),
                    static_cast<unsigned long long>(unexpected));
    }
    if (opts.metrics) {
        std::printf("%s", metrics.dump().c_str());
    }
    return unexpected == 0 ? 0 : 1;
}

int
exploreMain(int argc, char **argv)
{
    ExploreOptions opts;
    for (int i = 0; i < argc; ++i) {
        std::string_view arg = argv[i];
        auto numArg = [&](uint64_t &out) {
            return i + 1 < argc && util::parseNumber(argv[++i], out) &&
                   out >= 1;
        };
        if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--metrics") {
            opts.metrics = true;
        } else if (arg == "--no-reduction") {
            opts.explorer.reduction = false;
        } else if (arg == "--no-shrink") {
            opts.explorer.shrink = false;
        } else if (arg == "--max-schedules") {
            if (!numArg(opts.explorer.maxSchedules)) {
                return usage();
            }
        } else if (arg == "--step-budget") {
            if (!numArg(opts.explorer.stepBudget)) {
                return usage();
            }
        } else if (arg.starts_with("-")) {
            return usage();
        } else if (const auto *entry = cluster::findWorkload(arg)) {
            opts.workloads.push_back(entry);
        } else {
            usage();
            std::fprintf(stderr, "remora explore: unknown workload '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    if (opts.list) {
        for (const auto &e : cluster::workloads()) {
            std::printf("%s%s\n", e.name, e.seeded ? " (seeded bug)" : "");
        }
        return 0;
    }
    if (opts.workloads.empty()) {
        for (const auto &e : cluster::workloads()) {
            if (!e.seeded) {
                opts.workloads.push_back(&e);
            }
        }
    }
    return explore(opts);
}

// ----------------------------------------------------------------------
// race: one seeded, race-clean cluster workload under the armed
// happens-before detector.
//
// A three-node workload exercises each ordering primitive the detector
// models — name-service publish/import (notification and CT
// sequence-word edges), a CAS-guarded spin-lock counter (sync-word and
// CAS-pair edges), and Hybrid-1 RPC round trips (request notification
// and reply sequence word) — under schedule perturbation, then prints
//
//     seed=<N> schedule=0x<16 hex> semantic=0x<16 hex> races=<M> checked=<K>
//
// The exit status is the race count clamped to 1, so a lost
// happens-before edge (a false positive here) fails the run. The
// schedule digest shows that each seed ran a distinct schedule, and
// both digests show that reruns of one seed replay bit-identically.
// ----------------------------------------------------------------------

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

/** Hybrid-1 echo round trips. */
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
race(uint64_t seed)
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

    // Hybrid-1 RPC: server on node 1, client on node 3.
    mem::Process &serverProc = c.nodes[0]->spawnProcess("rpc-server");
    rpc::Hybrid1Server server(*c.engines[0], serverProc);
    server.setHandler(echo);
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

    std::printf("seed=%llu schedule=0x%016llx semantic=0x%016llx "
                "races=%llu checked=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(
                    c.sim.scheduleDigest().value()),
                static_cast<unsigned long long>(
                    c.sim.semanticDigest().value()),
                static_cast<unsigned long long>(det.raceCount()),
                static_cast<unsigned long long>(det.accessesChecked()));
    for (const auto &r : det.reports()) {
        std::fprintf(stderr, "%s\n", r.format().c_str());
    }
    return det.raceCount() == 0 ? 0 : 1;
}

// ----------------------------------------------------------------------
// faults: one seeded lossy-cluster workload over the reliable wire.
//
// The paper's two-node testbed with the fault injector armed on both
// link directions carries notified WRITEs and remote READs whose sizes
// straddle the raw-cell / AAL5-frame boundary, so both encodings cross
// the lossy link. After quiescence it audits end-to-end delivery —
// server memory bytes, notification count and read-back contents — and
// prints
//
//     seed=<N> schedule=0x<16 hex> semantic=0x<16 hex> drops=<M>
//         retransmits=<K> undelivered=<U>
//
// `undelivered` counts user-visible losses (a write missing from
// memory, a missing notification, a failed or mismatched read). The
// exit status is 1 when that count, the wire's abandoned envelopes
// (sendFailures) or the coroutines still blocked at quiescence are
// nonzero, so any recovery regression fails the run.
// ----------------------------------------------------------------------

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
faults(uint64_t seed, double dropRate)
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
                     "remora faults: wire abandoned %llu envelope(s)\n",
                     static_cast<unsigned long long>(abandoned));
    }
    if (sim.blockedTaskCount() > 0) {
        std::fprintf(stderr,
                     "remora faults: %zu coroutine(s) blocked at quiescence\n",
                     sim.blockedTaskCount());
    }

    std::printf("seed=%llu schedule=0x%016llx semantic=0x%016llx "
                "drops=%llu retransmits=%llu undelivered=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(sim.scheduleDigest().value()),
                static_cast<unsigned long long>(sim.semanticDigest().value()),
                static_cast<unsigned long long>(c.network.totalFaultDrops()),
                static_cast<unsigned long long>(
                    engineA.wire().retransmits() +
                    engineB.wire().retransmits()),
                static_cast<unsigned long long>(undelivered));
    bool failed =
        undelivered > 0 || abandoned > 0 || sim.blockedTaskCount() > 0;
    return failed ? 1 : 0;
}

// ----------------------------------------------------------------------
// prof: end-to-end critical-path profile of the transfer stack.
//
// Builds the paper's two-node testbed, turns the trace recorder on,
// drives a mixed workload (rmem WRITE/READ/CAS rounds, a kernel-thread
// RPC round trip, a Hybrid-1 call), and prints the per-op-kind
// critical-path breakdown: where each operation's time went between
// software, the wire, the controller, and queueing. --json swaps the
// table for the analyzer's machine-readable dump; --trace also writes
// the raw Chrome trace_event recording for chrome://tracing or
// ui.perfetto.dev. --probe swaps the mixed workload for the
// name-service probe shape: each iteration reads four directory slots
// one scalar read() at a time, then again as a single readv() batch, so
// the `read` and `vector` rows attribute exactly where batching
// reclaims time.
// ----------------------------------------------------------------------

/** The sequential mixed workload; one iteration per op kind per round. */
sim::Task<void>
mixedWorkload(rmem::RmemEngine *client, rmem::ImportedSegment server,
              rmem::SegmentId scratch, rpc::RpcTransport *rpc,
              rpc::Hybrid1Client *hybrid, int iters)
{
    for (int i = 0; i < iters; ++i) {
        std::vector<uint8_t> data(256, static_cast<uint8_t>(i));
        auto ws = co_await client->write(server, 0, data);
        REMORA_ASSERT(ws.ok());

        rmem::ReadOutcome ro =
            co_await client->read(server, 0, scratch, 0, 256);
        REMORA_ASSERT(ro.status.ok());

        rmem::CasOutcome co = co_await client->cas(
            server, 512, static_cast<uint32_t>(i),
            static_cast<uint32_t>(i + 1), scratch, 256);
        REMORA_ASSERT(co.status.ok());

        auto rr = co_await rpc->call(1, 7, std::vector<uint8_t>(64, 0xab));
        REMORA_ASSERT(rr.ok());

        auto hr = co_await hybrid->call(std::vector<uint8_t>(64, 0xcd));
        REMORA_ASSERT(hr.ok());
    }
}

/**
 * The clerk-probe shape: four 64-byte directory slots fetched first as
 * four awaited scalar reads (one trap, frame, response, and interrupt
 * each), then as one readv() batch (all four in a request/response
 * pair). The analyzer's `read` row is the scalar side, `vector` the
 * batched side.
 */
sim::Task<void>
probeWorkload(rmem::RmemEngine *client, rmem::ImportedSegment server,
              rmem::SegmentId scratch, int iters)
{
    constexpr uint32_t kSlots = 4;
    constexpr uint32_t kSlotBytes = 64;
    for (int i = 0; i < iters; ++i) {
        for (uint32_t s = 0; s < kSlots; ++s) {
            // NOLINTNEXTLINE(remora-scalar-op-loop): the scalar
            // baseline this profile exists to attribute.
            auto ro = co_await client->read(server, s * kSlotBytes, scratch,
                                            s * kSlotBytes, kSlotBytes);
            REMORA_ASSERT(ro.status.ok());
        }
        std::vector<rmem::BatchBuilder::Read> ops;
        for (uint32_t s = 0; s < kSlots; ++s) {
            ops.push_back({server, s * kSlotBytes, scratch,
                           s * kSlotBytes, kSlotBytes, false});
        }
        // A wire-cost profile: the sub-op payloads are deliberately unused.
        // NOLINTNEXTLINE(remora-unchecked-vector-status)
        auto vo = co_await client->readv(std::move(ops));
        REMORA_ASSERT(vo.status.ok());
    }
}

int
prof(int iters, bool probe, bool json, const char *tracePath)
{
    cluster::Cluster c({.names = {"server", "client"}});
    sim::Simulator &sim = c.sim;
    mem::Node &server = *c.nodes[0];
    mem::Node &client = *c.nodes[1];
    rmem::RmemEngine &serverEng = *c.engines[0];
    rmem::RmemEngine &clientEng = *c.engines[1];

    // Target segment on the server, scratch (read/cas landing) on the
    // client.
    mem::Process &sproc = server.spawnProcess("target");
    mem::Vaddr sbase = sproc.space().allocRegion(4096);
    auto exported = serverEng.exportSegment(sproc, sbase, 4096,
                                            rmem::Rights::kAll,
                                            rmem::NotifyPolicy::kNever,
                                            "prof.target");
    REMORA_ASSERT(exported.ok());
    mem::Process &cproc = client.spawnProcess("driver");
    mem::Vaddr cbase = cproc.space().allocRegion(4096);
    auto scratch = clientEng.exportSegment(cproc, cbase, 4096,
                                           rmem::Rights::kAll,
                                           rmem::NotifyPolicy::kNever,
                                           "prof.scratch");
    REMORA_ASSERT(scratch.ok());

    // Kernel-thread RPC and Hybrid-1 echo servers on the server node.
    rpc::RpcTransport serverRpc(serverEng.wire());
    rpc::RpcTransport clientRpc(clientEng.wire());
    serverRpc.registerProc(7, echo);
    rpc::Hybrid1Server hyServer(serverEng, sproc);
    hyServer.setHandler(echo);
    hyServer.start();
    rpc::Hybrid1Client hyClient(clientEng, cproc,
                                hyServer.requestSegmentHandle(),
                                hyServer.allocSlot());

    auto &rec = obs::TraceRecorder::instance();
    rec.enable(sim);

    auto task = probe ? probeWorkload(&clientEng, exported.value(),
                                      scratch.value().descriptor, iters)
                      : mixedWorkload(&clientEng, exported.value(),
                                      scratch.value().descriptor,
                                      &clientRpc, &hyClient, iters);
    sim.run();
    REMORA_ASSERT(task.done());
    rec.disable();

    obs::CriticalPathAnalyzer analyzer;
    auto paths = analyzer.analyze(rec.events());
    if (json) {
        std::fputs(obs::CriticalPathAnalyzer::toJson(paths).c_str(), stdout);
        std::fputc('\n', stdout);
    } else {
        std::printf("critical-path breakdown, %d iteration%s, mean us/op:\n",
                    iters, iters == 1 ? "" : "s");
        std::fputs(obs::CriticalPathAnalyzer::renderText(paths).c_str(),
                   stdout);
    }
    if (tracePath != nullptr) {
        if (!rec.writeChromeJson(tracePath)) {
            std::fprintf(stderr, "remora prof: cannot write %s\n", tracePath);
            return 1;
        }
        std::fprintf(stderr, "trace written to %s (%zu events)\n", tracePath,
                     rec.eventCount());
    }
    return 0;
}

int
profMain(int argc, char **argv)
{
    uint64_t iters = 8;
    bool probe = false;
    bool json = false;
    const char *tracePath = nullptr;
    for (int i = 0; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--probe") {
            probe = true;
        } else if (arg == "--iters" && i + 1 < argc &&
                   util::parseNumber(argv[i + 1], iters) && iters >= 1 &&
                   iters <= INT_MAX) {
            ++i;
        } else if (arg == "--trace" && i + 1 < argc) {
            tracePath = argv[++i];
        } else {
            return usage();
        }
    }
    return prof(static_cast<int>(iters), probe, json, tracePath);
}

} // namespace
} // namespace remora

int
main(int argc, char **argv)
{
    using namespace remora;
    std::string_view cmd = argc >= 2 ? argv[1] : "";
    // The subcommand's own arguments.
    int n = argc - 2;
    char **args = argv + 2;
    uint64_t seed = 0;
    if (cmd == "explore") {
        return exploreMain(n, args);
    }
    if (cmd == "prof") {
        return profMain(n, args);
    }
    if (cmd == "race") {
        if (n > 1 || (n == 1 && !util::parseNumber(args[0], seed))) {
            return usage();
        }
        return race(seed);
    }
    if (cmd == "faults") {
        double dropRate = 0.05;
        if (n > 2 || (n >= 1 && !util::parseNumber(args[0], seed)) ||
            (n == 2 && !util::parseNumber(args[1], dropRate)) ||
            dropRate < 0.0 || dropRate > 1.0) {
            return usage();
        }
        return faults(seed, dropRate);
    }
    return usage();
}
