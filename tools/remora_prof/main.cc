/**
 * @file
 * remora_prof: end-to-end critical-path profile of the transfer stack.
 *
 * Builds the paper's two-node testbed in-process, turns the trace
 * recorder on, drives a mixed workload (rmem WRITE/READ/CAS rounds, a
 * kernel-thread RPC round trip, a Hybrid-1 call), and prints the
 * per-op-kind critical-path breakdown — where each operation's wall
 * time went between software, the wire, the controller, and queueing.
 *
 *     remora_prof [--iters N] [--probe] [--json] [--trace FILE]
 *
 * --json swaps the table for the analyzer's machine-readable dump;
 * --trace additionally writes the raw Chrome trace_event recording for
 * chrome://tracing / ui.perfetto.dev (the same DAG, arrows and all).
 * --probe swaps the mixed workload for the name-service probe shape:
 * each iteration reads four directory slots one scalar read() at a
 * time, then again as a single readv() batch, so the `read` and
 * `vector` rows attribute exactly where batching reclaims time. An N
 * that is not a whole number of at least 1 prints the usage and exits 2.
 */
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "obs/critical_path.h"
#include "obs/trace.h"
#include "rpc/hybrid1.h"
#include "rpc/transport.h"
#include "sim/task.h"
#include "util/panic.h"
#include "util/strings.h"

namespace remora {
namespace {

/** The sequential mixed workload; one iteration per op kind per round. */
sim::Task<void>
workload(rmem::RmemEngine *client, rmem::ImportedSegment server,
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
run(int iters, bool probe, bool json, const char *tracePath)
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

    // Kernel-thread RPC echo on the server.
    rpc::RpcTransport serverRpc(serverEng.wire());
    rpc::RpcTransport clientRpc(clientEng.wire());
    serverRpc.registerProc(
        7, [](net::NodeId,
              std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });

    // Hybrid-1 echo on the server.
    rpc::Hybrid1Server hyServer(serverEng, sproc);
    hyServer.setHandler(
        [](net::NodeId,
           std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });
    hyServer.start();
    rpc::Hybrid1Client hyClient(clientEng, cproc,
                                hyServer.requestSegmentHandle(),
                                hyServer.allocSlot());

    auto &rec = obs::TraceRecorder::instance();
    rec.enable(sim);

    auto task = probe ? probeWorkload(&clientEng, exported.value(),
                                      scratch.value().descriptor, iters)
                      : workload(&clientEng, exported.value(),
                                 scratch.value().descriptor, &clientRpc,
                                 &hyClient, iters);
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
            std::fprintf(stderr, "remora_prof: cannot write %s\n", tracePath);
            return 1;
        }
        std::fprintf(stderr, "trace written to %s (%zu events)\n", tracePath,
                     rec.eventCount());
    }
    return 0;
}

} // namespace
} // namespace remora

int
main(int argc, char **argv)
{
    uint64_t iters = 8;
    bool probe = false;
    bool json = false;
    const char *tracePath = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--probe") == 0) {
            probe = true;
        } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc &&
                   remora::util::parseNumber(argv[i + 1], iters) &&
                   iters >= 1 && iters <= INT_MAX) {
            ++i;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            tracePath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: remora_prof [--iters N] [--probe] [--json] "
                         "[--trace FILE]\n");
            return 2;
        }
    }
    return remora::run(static_cast<int>(iters), probe, json, tracePath);
}
