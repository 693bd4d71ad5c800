/**
 * @file
 * Quickstart: the remote-memory model in one small program.
 *
 * Builds the paper's measurement testbed — two workstations on a
 * direct ATM link — then walks the core concepts:
 *
 *   1. a server process exports a protected memory segment;
 *   2. a client on the other machine imports it by name;
 *   3. the client WRITEs into it (pure data transfer: the server
 *      process never runs);
 *   4. the client WRITEs with the notify bit set (separate, optional
 *      control transfer: the server's blocked reader wakes);
 *   5. the client READs the segment back and checks the bytes;
 *   6. a file read rides the same primitives end to end: client clerk →
 *      Hybrid-1 request write → server dispatch → return write.
 *
 * The whole run is recorded by the observability layer: it writes
 * quickstart.trace.json (open in chrome://tracing or ui.perfetto.dev)
 * and quickstart.metrics.json (every layer's counters, one document).
 *
 * Run it and follow the narration.
 */
#include <cstdio>

#include "dfs/backend.h"
#include "dfs/clerk.h"
#include "dfs/server.h"
#include "cluster/cluster.h"
#include "names/clerk.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/task.h"
#include "util/strings.h"

using namespace remora;

namespace {

sim::Task<void>
serverSide(rmem::RmemEngine *engine, names::NameClerk *names,
           mem::Process *proc)
{
    auto &sim = engine->node().simulator();

    // 1. Export 4 KB of this process's memory under a public name.
    mem::Vaddr base = proc->space().allocRegion(4096);
    auto handle = co_await names->exportByName(
        proc, base, 4096, rmem::Rights::kAll,
        rmem::NotifyPolicy::kConditional, "quickstart.board");
    REMORA_ASSERT(handle.ok());
    std::printf("[%-9s] server exported 'quickstart.board' "
                "(descriptor %u, generation %u)\n",
                util::formatDuration(sim.now()).c_str(),
                handle.value().descriptor, handle.value().generation);

    // 4b. Block on the segment's notification channel: this is the
    // *optional* control-transfer path. Plain writes land silently.
    auto *channel = engine->channel(handle.value().descriptor);
    rmem::Notification n = co_await channel->next();
    std::printf("[%-9s] server woken by notification: node %u wrote %u "
                "bytes at offset %u\n",
                util::formatDuration(sim.now()).c_str(), n.srcNode, n.count,
                n.offset);

    std::vector<uint8_t> seen(16);
    REMORA_ASSERT(proc->space().read(base, seen).ok());
    std::printf("[%-9s] server reads its own memory: \"%.*s\"\n",
                util::formatDuration(sim.now()).c_str(),
                static_cast<int>(seen.size()), seen.data());
}

sim::Task<void>
clientSide(rmem::RmemEngine *engine, names::NameClerk *names,
           mem::Process *proc)
{
    auto &sim = engine->node().simulator();

    // Give the server a moment to export.
    co_await sim::delay(sim, sim::msec(1));

    // 2. Import the segment by name (one remote read of the peer
    // clerk's registry resolves it).
    auto imported = co_await names->import("quickstart.board", 2);
    REMORA_ASSERT(imported.ok());
    rmem::ImportedSegment seg = imported.value();
    std::printf("[%-9s] client imported 'quickstart.board' from node %u\n",
                util::formatDuration(sim.now()).c_str(), seg.node);

    // 3. Pure data transfer: no control reaches the server process.
    std::string greeting = "hello remora!";
    std::vector<uint8_t> bytes(greeting.begin(), greeting.end());
    sim::Time t0 = sim.now();
    auto ws = co_await engine->write(seg, 0, bytes);
    REMORA_ASSERT(ws.ok());
    std::printf("[%-9s] client remote-wrote %zu bytes (local completion "
                "in %s; the server process never ran)\n",
                util::formatDuration(sim.now()).c_str(), bytes.size(),
                util::formatDuration(sim.now() - t0).c_str());

    // 4. The same write with the notify bit: now (and only now) the
    // destination gets a control transfer.
    ws = co_await engine->write(seg, 0, bytes, /*notify=*/true);
    REMORA_ASSERT(ws.ok());

    // 5. Read it back through the wire into a local segment.
    mem::Vaddr lbase = proc->space().allocRegion(4096);
    auto local = engine->exportSegment(*proc, lbase, 4096,
                                       rmem::Rights::kRead,
                                       rmem::NotifyPolicy::kNever,
                                       "quickstart.scratch");
    REMORA_ASSERT(local.ok());
    t0 = sim.now();
    auto read = co_await engine->read(
        seg, 0, local.value().descriptor, 0,
        static_cast<uint32_t>(bytes.size()));
    REMORA_ASSERT(read.status.ok());
    std::printf("[%-9s] client remote-read %zu bytes back in %s: \"%.*s\"\n",
                util::formatDuration(sim.now()).c_str(), read.data.size(),
                util::formatDuration(sim.now() - t0).c_str(),
                static_cast<int>(read.data.size()), read.data.data());
    REMORA_ASSERT(read.data == bytes);
}

} // namespace

int
main()
{
    std::printf("remora quickstart: two DECstations, one ATM link\n\n");

    cluster::Cluster testbed({.names = {"client", "server"}});
    sim::Simulator &sim = testbed.sim;

    // Record everything this run does, against the simulated clock.
    obs::TraceRecorder::instance().enable(sim);

    mem::Node &client = *testbed.nodes[0];
    mem::Node &server = *testbed.nodes[1];
    rmem::RmemEngine &clientEngine = *testbed.engines[0];
    rmem::RmemEngine &serverEngine = *testbed.engines[1];

    names::NameClerk clientNames(clientEngine);
    names::NameClerk serverNames(serverEngine);
    clientNames.addPeer(2);
    serverNames.addPeer(1);

    mem::Process &serverProc = server.spawnProcess("app");
    mem::Process &clientProc = client.spawnProcess("app");

    auto s = serverSide(&serverEngine, &serverNames, &serverProc);
    auto c = clientSide(&clientEngine, &clientNames, &clientProc);
    sim.run();
    REMORA_ASSERT(s.done() && c.done());

    // 6. A file service over the same two primitives: the clerk's read
    // becomes one Hybrid-1 request write (with notification) and the
    // server's reply becomes pure return writes.
    dfs::FileStore store;
    dfs::FileServer fileServer(serverEngine, store);
    auto file = store.createFile(store.root(), "greeting.txt", 4096);
    REMORA_ASSERT(file.ok());
    fileServer.warmCaches();
    fileServer.start();
    sim.run();

    rpc::Hybrid1Client hyClient(clientEngine, clientProc,
                                fileServer.hybridHandle(),
                                fileServer.allocClientSlot());
    dfs::HyBackend hyBackend(hyClient);
    dfs::ServerClerk clerk(client.cpu(), hyBackend);
    sim::Time t0 = sim.now();
    auto fileRead = clerk.read(file.value(), 0, 1024);
    sim.run();
    REMORA_ASSERT(fileRead.done());
    REMORA_ASSERT(fileRead.result().ok());
    std::printf("[%-9s] clerk read 1 KB of 'greeting.txt' through the "
                "file service in %s\n",
                util::formatDuration(sim.now()).c_str(),
                util::formatDuration(sim.now() - t0).c_str());

    std::printf("\ndone: %llu simulated events, %s of simulated time\n",
                static_cast<unsigned long long>(sim.eventsProcessed()),
                util::formatDuration(sim.now()).c_str());

    // Export what the observability layer saw.
    obs::TraceRecorder::instance().disable();
    if (obs::TraceRecorder::instance().writeChromeJson(
            "quickstart.trace.json")) {
        std::printf("wrote quickstart.trace.json (%zu events; open in "
                    "chrome://tracing)\n",
                    obs::TraceRecorder::instance().eventCount());
    }

    obs::MetricRegistry metrics;
    client.registerStats(metrics, "client");
    server.registerStats(metrics, "server");
    clientEngine.registerStats(metrics, "client.rmem");
    serverEngine.registerStats(metrics, "server.rmem");
    clerk.registerStats(metrics, "client.dfs.clerk");
    fileServer.registerStats(metrics, "server.dfs.server");
    std::FILE *mf = std::fopen("quickstart.metrics.json", "w");
    if (mf != nullptr) {
        std::string json = metrics.dumpJson();
        std::fwrite(json.data(), 1, json.size(), mf);
        std::fputc('\n', mf);
        std::fclose(mf);
        std::printf("wrote quickstart.metrics.json (%zu metrics)\n",
                    metrics.size());
    }
    return 0;
}
