/**
 * @file
 * The restructured distributed file service, end to end (§3.2, §5).
 *
 * Full paper structure on two machines: an untrusted client talks
 * local RPC to the server clerk on its own machine; the clerk satisfies
 * repeat requests from its local cache areas and goes to the server
 * with *pure data transfer* (remote reads/writes of the server's
 * exported cache areas). The server process sleeps through all of it.
 *
 * The example reads a file twice (cold then cached), lists a
 * directory, follows a symlink, writes a block back, and prints what
 * the server's CPU did — which, under DX, is only kernel data-path
 * work.
 */
#include <cstdio>

#include "dfs/backend.h"
#include "dfs/clerk.h"
#include "dfs/server.h"
#include "cluster/cluster.h"
#include "sim/task.h"
#include "util/strings.h"

using namespace remora;

namespace {

sim::Task<void>
clientSession(sim::Simulator *sim, dfs::ServerClerk *clerk,
              dfs::FileStore *store)
{
    auto root = store->root();

    // Resolve /notes/report.txt through the clerk.
    sim::Time t0 = sim->now();
    auto dir = co_await clerk->lookup(root, "notes");
    REMORA_ASSERT(dir.ok());
    auto file = co_await clerk->lookup(dir.value().fh, "report.txt");
    REMORA_ASSERT(file.ok());
    std::printf("  lookup /notes/report.txt     : %s (size %llu)\n",
                util::formatDuration(sim->now() - t0).c_str(),
                static_cast<unsigned long long>(file.value().attr.size));

    // Cold read: clerk fetches the block from the server's data area.
    t0 = sim->now();
    auto data = co_await clerk->read(file.value().fh, 0, 8192);
    REMORA_ASSERT(data.ok());
    std::printf("  read 8K (cold, remote fetch) : %s\n",
                util::formatDuration(sim->now() - t0).c_str());

    // Warm read: served entirely from the clerk's local cache.
    t0 = sim->now();
    auto again = co_await clerk->read(file.value().fh, 0, 8192);
    REMORA_ASSERT(again.ok() && again.value() == data.value());
    std::printf("  read 8K (warm, clerk cache)  : %s\n",
                util::formatDuration(sim->now() - t0).c_str());

    // Directory listing and symlink, same story.
    t0 = sim->now();
    auto entries = co_await clerk->readdir(dir.value().fh, 4096);
    REMORA_ASSERT(entries.ok());
    std::printf("  readdir /notes (%2zu entries)  : %s\n",
                entries.value().size(),
                util::formatDuration(sim->now() - t0).c_str());

    auto link = co_await clerk->lookup(root, "latest");
    REMORA_ASSERT(link.ok());
    t0 = sim->now();
    auto target = co_await clerk->readlink(link.value().fh);
    REMORA_ASSERT(target.ok());
    std::printf("  readlink /latest             : %s -> \"%s\"\n",
                util::formatDuration(sim->now() - t0).c_str(),
                target.value().c_str());

    // Write-back: the clerk pushes the block into the server's data
    // area with a remote write; the server applies it lazily.
    std::vector<uint8_t> edited = data.value();
    edited[0] = 'R';
    t0 = sim->now();
    auto ws = co_await clerk->write(file.value().fh, 0, edited);
    REMORA_ASSERT(ws.ok());
    std::printf("  write 8K (eager push)        : %s\n",
                util::formatDuration(sim->now() - t0).c_str());
}

} // namespace

int
main()
{
    std::printf("remora file-service example: client -> clerk -> pure "
                "data transfer -> server caches\n\n");

    cluster::Cluster c({.names = {"client-ws", "file-server"}});
    sim::Simulator &sim = c.sim;
    mem::Node &clientNode = *c.nodes[0];
    mem::Node &serverNode = *c.nodes[1];
    rmem::RmemEngine &clientEngine = *c.engines[0];

    // Build the filesystem and the server over it.
    dfs::FileStore store;
    auto notes = store.mkdir(store.root(), "notes");
    REMORA_ASSERT(notes.ok());
    auto report = store.createFile(notes.value(), "report.txt", 8192);
    REMORA_ASSERT(report.ok());
    for (int i = 0; i < 10; ++i) {
        auto extra = store.createFile(
            notes.value(), "draft" + std::to_string(i) + ".txt", 1024);
        REMORA_ASSERT(extra.ok());
    }
    auto latest = store.symlink(store.root(), "latest",
                                "notes/report.txt");
    REMORA_ASSERT(latest.ok());

    dfs::FileServer server(*c.engines[1], store);
    server.warmCaches();
    server.start();

    // The clerk on the client machine, speaking DX to the server (with
    // Hybrid-1 standing by for cache misses).
    mem::Process &clerkProc = clientNode.spawnProcess("server-clerk");
    rpc::Hybrid1Client fallback(clientEngine, clerkProc,
                                server.hybridHandle(),
                                server.allocClientSlot());
    dfs::DxBackend dx(clientEngine, clerkProc, server.areaHandles(),
                      dfs::CacheGeometry{}, &fallback);
    dfs::ServerClerk clerk(clientNode.cpu(), dx);

    sim.run();
    serverNode.cpu().resetAccounting();
    // The scavenger reschedules itself forever, so start it only once
    // the event queue is otherwise drained and run with a time bound.
    server.startScavenger(sim::msec(50));

    auto session = clientSession(&sim, &clerk, &store);
    sim.run(sim.now() + sim::kSecond); // session + a scavenger pass
    REMORA_ASSERT(session.done());
    session.result();

    // What did the server's CPU actually do?
    auto &cpu = serverNode.cpu();
    std::printf("\nserver CPU during the session:\n");
    std::printf("  data receive      : %s\n",
                util::formatDuration(
                    cpu.busyIn(sim::CpuCategory::kDataReceive)).c_str());
    std::printf("  data reply        : %s\n",
                util::formatDuration(
                    cpu.busyIn(sim::CpuCategory::kDataReply)).c_str());
    std::printf("  control transfer  : %s\n",
                util::formatDuration(
                    cpu.busyIn(sim::CpuCategory::kControlTransfer)).c_str());
    std::printf("  procedure work    : %s\n",
                util::formatDuration(
                    cpu.busyIn(sim::CpuCategory::kProcInvoke) +
                    cpu.busyIn(sim::CpuCategory::kProcExec)).c_str());

    // The lazily-applied write reached the filesystem.
    auto synced = store.read(report.value(), 0, 1);
    REMORA_ASSERT(synced.ok());
    std::printf("\nafter the scavenger pass, byte 0 of report.txt = '%c' "
                "(client wrote 'R')\n",
                synced.value()[0]);
    std::printf("clerk stats: %llu requests, %llu local-cache hits, %llu "
                "backend fetches; DX misses: %llu\n",
                static_cast<unsigned long long>(
                    clerk.stats().requests.value()),
                static_cast<unsigned long long>(
                    clerk.stats().localHits.value()),
                static_cast<unsigned long long>(
                    clerk.stats().backendCalls.value()),
                static_cast<unsigned long long>(dx.misses()));
    return 0;
}
