/**
 * @file
 * Ablation A3: server load and throughput vs. client count.
 *
 * The paper's motivation for the new structure is scalability: "if we
 * can eliminate both the traffic and the server involvement, we have
 * the potential to improve scalability by lowering both network and
 * server load" (§2), and the conclusion promises "reduced server load,
 * which supports scaling in the face of an increasing number of
 * clients" (§1).
 *
 * Setup: one file server on a switched cluster, N client nodes each
 * running a closed-loop Table-1a-weighted operation stream. For each N
 * and each scheme (HY = Hybrid-1, DX = pure data transfer) we measure
 * aggregate throughput and server-CPU utilization over a fixed window,
 * plus the simulator events each completed op costs (a simulated count,
 * so any change to the event structure shows up in the gate). Only ops
 * that complete inside the window count, and only the CPU time and the
 * events that fall inside it, so no utilization can exceed 1. At N = 16
 * it also records the simulator's own speed over the window, events per
 * host second, as a wall-clock metric.
 *
 * Expected shape: HY saturates the server CPU (mostly on control
 * transfer and procedure execution) at a small N; DX keeps utilization
 * low and throughput scaling well past HY's knee.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "dfs/backend.h"
#include "dfs/server.h"
#include "net/network.h"
#include "trace/workload.h"
#include "util/strings.h"

using namespace remora;

namespace {

constexpr sim::Duration kWindow = 2 * sim::kSecond;

struct ClusterRun
{
    double opsPerSec = 0;
    double serverUtil = 0;
    double meanLatencyMs = 0;
    double eventsPerOp = 0;
    double hostEventsPerSec = 0;
};

/** Closed-loop client: draws ops from the Table 1a mix. */
sim::Task<void>
clientLoop(dfs::FileServiceBackend *backend, trace::WorkloadGen *gen,
           const std::vector<dfs::FileHandle> *files, dfs::FileHandle root,
           sim::Simulator *sim, sim::Time stopAt, uint64_t *completed,
           sim::Duration *latencySum)
{
    while (sim->now() < stopAt) {
        trace::Op op = gen->next();
        dfs::FileHandle target = (*files)[op.fileIdx % files->size()];
        sim::Time t0 = sim->now();
        switch (op.cls) {
          case trace::OpClass::kGetAttr:
          case trace::OpClass::kOther: {
            auto r = co_await backend->getattr(target);
            (void)r;
            break;
          }
          case trace::OpClass::kLookup: {
            auto r = co_await backend->lookup(root, "hot0");
            (void)r;
            break;
          }
          case trace::OpClass::kRead: {
            auto r = co_await backend->read(
                target, 0, std::min<uint32_t>(op.bytes, 8192));
            (void)r;
            break;
          }
          case trace::OpClass::kNullPing: {
            auto r = co_await backend->null();
            (void)r;
            break;
          }
          case trace::OpClass::kReadLink:
          case trace::OpClass::kStatFs: {
            auto r = co_await backend->statfs();
            (void)r;
            break;
          }
          case trace::OpClass::kReadDir: {
            auto r = co_await backend->readdir(root, op.bytes);
            (void)r;
            break;
          }
          case trace::OpClass::kWrite: {
            auto r = co_await backend->write(
                target, 0,
                std::vector<uint8_t>(std::min<uint32_t>(op.bytes, 8192),
                                     0x77));
            (void)r;
            break;
          }
          default:
            break;
        }
        // Only ops that complete inside the window count.
        if (sim->now() < stopAt) {
            ++*completed;
            *latencySum += sim->now() - t0;
        }
    }
}

/** Build a cluster with N clients and run one scheme. */
ClusterRun
runScheme(size_t clients, bool useDx)
{
    // Node 1 is the server; client i is node i + 2.
    cluster::ClusterSpec spec{.names = {"server"}, .switched = true};
    for (size_t i = 0; i < clients; ++i) {
        spec.names.push_back("client" + std::to_string(i + 2));
    }
    cluster::Cluster c(spec);
    sim::Simulator &sim = c.sim;
    mem::Node &serverNode = *c.nodes[0];
    rmem::RmemEngine &serverEngine = *c.engines[0];

    dfs::FileStore store;
    rpc::Hybrid1Params hp;
    hp.slots = static_cast<uint32_t>(clients) + 1;
    hp.pollInterval = sim::usec(4);
    dfs::FileServer server(serverEngine, store, dfs::CacheGeometry{},
                           dfs::ServiceTimes{}, hp);

    // Small hot working set so the 100%-server-hit condition holds.
    std::vector<dfs::FileHandle> files;
    for (int i = 0; i < 8; ++i) {
        auto f = store.createFile(store.root(), "hot" + std::to_string(i),
                                  16384);
        REMORA_ASSERT(f.ok());
        files.push_back(f.value());
    }
    server.warmCaches();
    server.start();
    sim.run();

    std::vector<std::unique_ptr<rpc::Hybrid1Client>> hyClients;
    std::vector<std::unique_ptr<dfs::HyBackend>> hyBackends;
    std::vector<std::unique_ptr<dfs::DxBackend>> dxBackends;
    std::vector<std::unique_ptr<trace::WorkloadGen>> gens;
    std::vector<uint64_t> completed(clients, 0);
    std::vector<sim::Duration> latency(clients, 0);

    serverNode.cpu().resetAccounting();
    uint64_t events0 = sim.eventsProcessed();
    sim::Time start = sim.now();
    sim::Time stopAt = start + kWindow;

    std::vector<sim::Task<void>> loops;
    for (size_t i = 0; i < clients; ++i) {
        mem::Process &proc =
            c.nodes[i + 1]->spawnProcess("clerk" + std::to_string(i));
        hyClients.push_back(std::make_unique<rpc::Hybrid1Client>(
            *c.engines[i + 1], proc, server.hybridHandle(),
            server.allocClientSlot(), hp));
        gens.push_back(std::make_unique<trace::WorkloadGen>(1000 + i));
        dfs::FileServiceBackend *backend;
        if (useDx) {
            dxBackends.push_back(std::make_unique<dfs::DxBackend>(
                *c.engines[i + 1], proc, server.areaHandles(),
                dfs::CacheGeometry{}, hyClients.back().get()));
            backend = dxBackends.back().get();
        } else {
            hyBackends.push_back(
                std::make_unique<dfs::HyBackend>(*hyClients.back()));
            backend = hyBackends.back().get();
        }
        loops.push_back(clientLoop(backend, gens[i].get(), &files,
                                   store.root(), &sim, stopAt,
                                   &completed[i], &latency[i]));
    }

    // Measure at the window's edge: run(limit) runs the events at the
    // limit, so stop one tick short, then let in-flight ops drain.
    auto hostStart = std::chrono::steady_clock::now();
    sim.run(stopAt - 1);
    double hostSecs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - hostStart)
                          .count();
    sim::Duration serverBusy = serverNode.cpu().busyAt(stopAt);
    uint64_t events = sim.eventsProcessed() - events0;
    sim.run(stopAt + sim::msec(200));
    for (auto &loop : loops) {
        loop.detach();
    }

    ClusterRun r;
    uint64_t total = 0;
    sim::Duration latSum = 0;
    for (size_t i = 0; i < clients; ++i) {
        total += completed[i];
        latSum += latency[i];
    }
    double secs = static_cast<double>(kWindow) / 1e9;
    r.opsPerSec = static_cast<double>(total) / secs;
    r.serverUtil =
        static_cast<double>(serverBusy) / static_cast<double>(kWindow);
    r.meanLatencyMs =
        total ? sim::toMsec(latSum / static_cast<sim::Duration>(total)) : 0;
    r.eventsPerOp =
        total ? static_cast<double>(events) / static_cast<double>(total) : 0;
    r.hostEventsPerSec =
        hostSecs > 0 ? static_cast<double>(events) / hostSecs : 0;
    return r;
}

} // namespace

int
main()
{
    bench::banner("Ablation A3: server load vs. number of clients");

    util::TextTable table({"Clients", "HY ops/s", "HY util", "HY lat (ms)",
                           "DX ops/s", "DX util", "DX lat (ms)",
                           "DX/HY thr"});

    bench::BenchReport report("scaling_clients");
    double hyKnee = 0, dxAt16 = 0, hyAt16 = 0, maxUtil = 0;
    for (size_t n : {1, 2, 4, 8, 16, 24}) {
        ClusterRun hy = runScheme(n, false);
        ClusterRun dx = runScheme(n, true);
        if (hy.serverUtil > 0.9 && hyKnee == 0) {
            hyKnee = static_cast<double>(n);
        }
        maxUtil = std::max({maxUtil, hy.serverUtil, dx.serverUtil});
        table.addRow({std::to_string(n), bench::fmt(hy.opsPerSec, 0),
                      bench::fmt(hy.serverUtil, 2),
                      bench::fmt(hy.meanLatencyMs, 2),
                      bench::fmt(dx.opsPerSec, 0),
                      bench::fmt(dx.serverUtil, 2),
                      bench::fmt(dx.meanLatencyMs, 2),
                      bench::fmt(dx.opsPerSec / hy.opsPerSec, 2)});
        std::string key = "n" + std::to_string(n);
        report.metric(key + ".hy.ops_per_sec", hy.opsPerSec, "ops/s");
        report.metric(key + ".hy.server_util", hy.serverUtil, "frac");
        report.metric(key + ".hy.mean_latency_ms", hy.meanLatencyMs, "ms");
        report.metric(key + ".dx.ops_per_sec", dx.opsPerSec, "ops/s");
        report.metric(key + ".dx.server_util", dx.serverUtil, "frac");
        report.metric(key + ".dx.mean_latency_ms", dx.meanLatencyMs, "ms");
        report.metric(key + ".hy.events_per_op", hy.eventsPerOp, "events/op");
        report.metric(key + ".dx.events_per_op", dx.eventsPerOp, "events/op");
        if (n == 16) {
            hyAt16 = hy.opsPerSec;
            dxAt16 = dx.opsPerSec;
            report.wallMetric("n16.hy.host_events_per_sec",
                              hy.hostEventsPerSec, "events/s");
            report.wallMetric("n16.dx.host_events_per_sec",
                              dx.hostEventsPerSec, "events/s");
        }
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("Shape checks:\n");
    std::printf("  HY saturates the server (>90%% util) by N=%g clients\n",
                hyKnee);
    std::printf("  at N=16, DX sustains %.1fx HY's throughput: %s\n",
                dxAt16 / hyAt16, dxAt16 > 1.5 * hyAt16 ? "yes" : "NO");

    report.metric("hy_saturation_knee_clients", hyKnee, "clients");
    report.metric("dx_over_hy_throughput_at_16", dxAt16 / hyAt16, "x");
    report.check("dx_gt_1.5x_hy_at_16", dxAt16 > 1.5 * hyAt16);
    report.check("server_util_at_most_1", maxUtil <= 1.0);
    report.write();
    return 0;
}
