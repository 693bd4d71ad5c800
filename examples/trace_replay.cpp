/**
 * @file
 * Replaying the paper's NFS workload against the live service.
 *
 * Ties the whole reproduction together: the Table 1a operation mix
 * (trace module) drives the simulated file service (dfs module) over
 * both structures — Hybrid-1 and pure data transfer — on the same
 * cluster, and the server's CPU tells the §2 story live: most of what
 * an RPC-structured server does is control transfer and procedure
 * machinery that the restructured service simply does not perform.
 */
#include <cstdio>

#include "dfs/backend.h"
#include "dfs/server.h"
#include "cluster/cluster.h"
#include "trace/workload.h"
#include "util/strings.h"

using namespace remora;

namespace {

constexpr int kOps = 1500;

sim::Task<void>
replay(dfs::FileServiceBackend *backend, trace::WorkloadGen *gen,
       const std::vector<dfs::FileHandle> *files, dfs::FileHandle dir)
{
    for (int i = 0; i < kOps; ++i) {
        trace::Op op = gen->next();
        dfs::FileHandle target = (*files)[op.fileIdx % files->size()];
        switch (op.cls) {
          case trace::OpClass::kGetAttr:
          case trace::OpClass::kOther: {
            auto r = co_await backend->getattr(target);
            REMORA_ASSERT(r.ok());
            break;
          }
          case trace::OpClass::kLookup: {
            auto r = co_await backend->lookup(dir, "font0.pcf");
            (void)r;
            break;
          }
          case trace::OpClass::kRead: {
            auto r = co_await backend->read(
                target, 0, std::min<uint32_t>(op.bytes, 8192));
            REMORA_ASSERT(r.ok());
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
            auto r = co_await backend->readdir(dir, op.bytes);
            (void)r;
            break;
          }
          case trace::OpClass::kWrite: {
            auto r = co_await backend->write(
                target, 0,
                std::vector<uint8_t>(std::min<uint32_t>(op.bytes, 8192),
                                     0x55));
            REMORA_ASSERT(r.ok());
            break;
          }
          default:
            break;
        }
    }
}

void
printBreakdown(const char *scheme, sim::CpuResource &cpu,
               sim::Duration elapsed)
{
    auto pct = [&](sim::CpuCategory cat) {
        return 100.0 * static_cast<double>(cpu.busyIn(cat)) /
               static_cast<double>(elapsed);
    };
    std::printf("  %-8s total util %4.1f%%  | recv %4.1f%%  control "
                "%4.1f%%  proc %4.1f%%  reply %4.1f%%\n",
                scheme,
                100.0 * static_cast<double>(cpu.totalBusy()) /
                    static_cast<double>(elapsed),
                pct(sim::CpuCategory::kDataReceive),
                pct(sim::CpuCategory::kControlTransfer),
                pct(sim::CpuCategory::kProcInvoke) +
                    pct(sim::CpuCategory::kProcExec),
                pct(sim::CpuCategory::kDataReply));
}

} // namespace

int
main()
{
    std::printf("remora trace replay: %d ops of the Table 1a mix against "
                "the live file service\n\n",
                kOps);

    cluster::Cluster c({.names = {"client", "server"}});
    sim::Simulator &sim = c.sim;
    rmem::RmemEngine &ce = *c.engines[0];

    dfs::FileStore store;
    std::vector<dfs::FileHandle> files =
        trace::buildPaperFileSet(store, 24, 5);
    auto fonts = store.lookup(store.root(), "fonts");
    REMORA_ASSERT(fonts.ok());

    dfs::FileServer server(*c.engines[1], store);
    server.warmCaches();
    // Re-pin the replay targets so collisions among the filler files
    // cannot evict them (100%-hit condition).
    for (auto fh : files) {
        server.cacheAttr(fh);
        server.cacheBlock(fh, 0);
    }
    server.start();
    sim.run();

    mem::Process &clerkProc = c.nodes[0]->spawnProcess("clerk");
    rpc::Hybrid1Client hyClient(ce, clerkProc, server.hybridHandle(),
                                server.allocClientSlot());
    dfs::HyBackend hy(hyClient);
    dfs::DxBackend dx(ce, clerkProc, server.areaHandles(),
                      dfs::CacheGeometry{}, &hyClient);

    auto &cpu = c.nodes[1]->cpu();

    // Hybrid-1 pass.
    trace::WorkloadGen genHy(77, 24);
    cpu.resetAccounting();
    sim::Time t0 = sim.now();
    auto hyRun = replay(&hy, &genHy, &files, fonts.value());
    while (!hyRun.done() && sim.step()) {
    }
    sim.run();
    sim::Duration hyElapsed = sim.now() - t0;
    double hyBusy = sim::toMsec(cpu.totalBusy());
    std::printf("Hybrid-1 pass: %d ops in %s simulated\n", kOps,
                util::formatDuration(hyElapsed).c_str());
    printBreakdown("HY", cpu, hyElapsed);

    // Pure-data-transfer pass, identical op stream.
    trace::WorkloadGen genDx(77, 24);
    cpu.resetAccounting();
    t0 = sim.now();
    auto dxRun = replay(&dx, &genDx, &files, fonts.value());
    while (!dxRun.done() && sim.step()) {
    }
    sim.run();
    sim::Duration dxElapsed = sim.now() - t0;
    double dxBusy = sim::toMsec(cpu.totalBusy());
    std::printf("\nPure-data-transfer pass: same %d ops in %s simulated\n",
                kOps, util::formatDuration(dxElapsed).c_str());
    printBreakdown("DX", cpu, dxElapsed);

    std::printf("\nserver CPU consumed:  HY %.1f ms   DX %.1f ms   "
                "(DX/HY = %.2f — the paper's \"50%% decrease in server "
                "load\" claim, on the real mix)\n",
                hyBusy, dxBusy, dxBusy / hyBusy);
    std::printf("throughput headroom:  the replay itself ran %.1fx "
                "faster under DX\n",
                static_cast<double>(hyElapsed) /
                    static_cast<double>(dxElapsed));
    REMORA_ASSERT(dxBusy < 0.5 * hyBusy);
    return 0;
}
