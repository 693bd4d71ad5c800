/**
 * @file
 * dfs_dx, dfs_hy and dfs_dx_lossy: the file service under load.
 *
 * One server and 16 clients (8 on dfs_dx_lossy) share one switch.
 * Each client is a closed
 * loop (a coroutine issuing its next op when the previous completes)
 * drawing a Table 1a NFS mix from its own trace::WorkloadGen stream,
 * with transfers capped at 8 KB. The server's cache areas are warmed
 * before the window, and the hot read set is never written, so every
 * read must return exactly what the FileStore holds. Writes go to one
 * file per client.
 *
 * Why each workload:
 *  - dfs_dx: pure data transfer (DxBackend, Hybrid-1 fallback on a
 *    miss). Vectored readv/writev move multi-cell AAL5 frames through
 *    the switch, so cells, links, CRC and a large event heap carry the
 *    host time while the server's RPC path sits idle.
 *  - dfs_hy: the same cluster, seeds and mix over Hybrid-1 (HyBackend).
 *    Control transfer dominates: a notified write, a server context
 *    switch, procedure execution and the reply write, with the server
 *    CPU saturated. It stresses CPU queueing and rpc marshaling, and
 *    its many reply-word poll timers make the sim core carry the most
 *    host time and cells the least.
 *  - dfs_dx_lossy: dfs_dx with the reliable wire on every engine and a
 *    seeded FaultPlan dropping 1% of cells on every link. It drives the
 *    wire layer through CRC envelopes, 480-byte fragments, acks,
 *    cancelled retransmit timers (heap tombstones) and read-window
 *    shrinks; a frame-level link fast path must fall back here. The
 *    fixed 500 us retransmit timeout fires spuriously behind the
 *    saturated server's queues, so the wire retransmits several
 *    envelopes per dropped cell and the latency tail approaches the DX
 *    clerk's 100 ms fetch timeout. With 16 clients a metadata fetch
 *    occasionally times out (about one op in 40,000 at 1% drop, one in
 *    5,000 at 2%); every op must complete, so this workload runs 8
 *    clients at 1%, which completed all of 490,000 ops over 80 seeds.
 */
#include <algorithm>

#include "dfs/backend.h"
#include "dfs/server.h"
#include "mem/node.h"
#include "net/fault.h"
#include "net/network.h"
#include "perfbench.h"
#include "rmem/engine.h"
#include "trace/workload.h"

namespace remora::perfbench {

namespace {

constexpr size_t kClients = 16;
constexpr size_t kLossyClients = 8;
constexpr uint32_t kReadFiles = 8;
constexpr uint32_t kReadFileBytes = 16384;
constexpr uint32_t kMaxTransfer = 8192;
constexpr double kLossyDropRate = 0.01;

enum class Scheme
{
    kDx,
    kHy,
    kDxLossy,
};

/** Op kinds as logged (the digest covers them). */
enum Kind : uint32_t
{
    kGetAttr = 0,
    kLookup,
    kRead,
    kNull,
    kStatFs,
    kReadDir,
    kWrite,
};

uint64_t
hashEntries(const std::vector<dfs::DirEntry> &entries)
{
    uint64_t h = entries.size();
    for (const auto &e : entries) {
        h = util::fnv1a(e.name, util::mix64(h ^ e.fileid));
    }
    return h;
}

class DfsTrial final : public Trial
{
  public:
    DfsTrial(Scheme scheme, uint64_t seed, bool corruptRead, Schedule sched)
        : scheme_(scheme),
          clients_(scheme == Scheme::kDxLossy ? kLossyClients : kClients),
          seed_(seed), corruptRead_(corruptRead), sched_(sched)
    {}

    ~DfsTrial() override
    {
        // Coroutine frames reference the cluster; end them first.
        loops_.clear();
    }

    void
    build() override
    {
        serverNode_ = std::make_unique<mem::Node>(sim_, 1, "server");
        serverEngine_ = std::make_unique<rmem::RmemEngine>(*serverNode_);
        network_.addHost(1, serverNode_->nic());
        for (size_t i = 0; i < clients_; ++i) {
            auto id = static_cast<net::NodeId>(i + 2);
            clientNodes_.push_back(std::make_unique<mem::Node>(
                sim_, id, "client" + std::to_string(id)));
            clientEngines_.push_back(
                std::make_unique<rmem::RmemEngine>(*clientNodes_.back()));
            network_.addHost(id, clientNodes_.back()->nic());
        }
        network_.wireSwitched();
        if (scheme_ == Scheme::kDxLossy) {
            serverEngine_->wire().enableReliability();
            for (auto &e : clientEngines_) {
                e->wire().enableReliability();
            }
            net::FaultPlan plan;
            plan.seed = util::mix64(seed_ ^ 0x6661756c74ull);
            plan.dropRate = kLossyDropRate;
            network_.installFaults(plan);
        }

        rpc::Hybrid1Params hp;
        hp.slots = static_cast<uint32_t>(clients_) + 1;
        hp.pollInterval = sim::usec(4);
        server_ = std::make_unique<dfs::FileServer>(
            *serverEngine_, store_, dfs::CacheGeometry{}, dfs::ServiceTimes{},
            hp);
        for (uint32_t i = 0; i < kReadFiles; ++i) {
            auto f = store_.createFile(store_.root(), "hot" + std::to_string(i),
                                       kReadFileBytes);
            REMORA_ASSERT(f.ok());
            readFiles_.push_back(f.value());
        }
        for (size_t i = 0; i < clients_; ++i) {
            auto f = store_.createFile(store_.root(), "out" + std::to_string(i),
                                       kMaxTransfer);
            REMORA_ASSERT(f.ok());
            writeFiles_.push_back(f.value());
        }
        server_->warmCaches();
        server_->start();
        sim_.run();

        for (size_t i = 0; i < clients_; ++i) {
            mem::Process &proc =
                clientNodes_[i]->spawnProcess("clerk" + std::to_string(i));
            hyClients_.push_back(std::make_unique<rpc::Hybrid1Client>(
                *clientEngines_[i], proc, server_->hybridHandle(),
                server_->allocClientSlot(), hp));
            if (scheme_ == Scheme::kHy) {
                backends_.push_back(
                    std::make_unique<dfs::HyBackend>(*hyClients_.back()));
            } else {
                auto dx = std::make_unique<dfs::DxBackend>(
                    *clientEngines_[i], proc, server_->areaHandles(),
                    dfs::CacheGeometry{}, hyClients_.back().get());
                dx_.push_back(dx.get());
                backends_.push_back(std::move(dx));
            }
            gens_.push_back(std::make_unique<trace::WorkloadGen>(
                util::mix64(seed_ * kClients + i)));
        }
        for (size_t i = 0; i < clients_; ++i) {
            loops_.push_back(clientLoop(this, static_cast<uint32_t>(i)));
        }
    }

    void
    runTo(sim::Time t, Sampler *sampler) override
    {
        // run(limit) executes events at <= limit, so limit t - 1 leaves
        // the events of instant t for the next region.
        while (true) {
            sim::Time limit = sampler ? std::min(t, sampler->due()) : t;
            sim_.run(limit - 1);
            if (sampler && limit == sampler->due()) {
                sampler->maybeSample(limit);
            }
            if (limit == t) {
                return;
            }
        }
    }

    void drain() override { sim_.run(); }

    void
    finish() override
    {
        for (const auto &loop : loops_) {
            if (!loop.done()) {
                log.checkFailed("client loop still running after drain");
            }
        }
        if (sim_.blockedTaskCount() != 0) {
            log.checkFailed("blocked coroutines after drain");
        }
    }

    ClusterView
    view() override
    {
        ClusterView v{&sim_, &network_, serverNode_.get(), {}, {}};
        v.engines.push_back(serverEngine_.get());
        for (size_t i = 0; i < clientNodes_.size(); ++i) {
            v.clients.push_back(clientNodes_[i].get());
            v.engines.push_back(clientEngines_[i].get());
        }
        return v;
    }

    void
    addWorkloadCounters(Counters &c) override
    {
        c.hyCalls = server_->stats().callsServed.value();
        c.dxAttempts = dxAttempts_;
        for (const dfs::DxBackend *dx : dx_) {
            c.dxMisses += dx->misses();
            c.windowShrinks += dx->windowShrinks();
        }
    }

  private:
    /** Closed-loop client: the next op starts when the last completes. */
    static sim::Task<void>
    clientLoop(DfsTrial *t, uint32_t client)
    {
        uint64_t index = 0;
        while (t->sim_.now() < t->sched_.stopAt) {
            trace::Op op = t->gens_[client]->next();
            OpRecord r;
            r.client = client;
            r.index = index++;
            r.start = t->sim_.now();
            co_await t->issue(client, op, &r);
            r.end = t->sim_.now();
            t->log.complete(r);
        }
    }

    /** Issue one drawn op through the client's backend and check it. */
    sim::Task<void>
    issue(uint32_t client, trace::Op op, OpRecord *r)
    {
        dfs::FileServiceBackend &be = *backends_[client];
        if (scheme_ != Scheme::kHy) {
            ++dxAttempts_;
        }
        uint32_t fileIdx = op.fileIdx % kReadFiles;
        dfs::FileHandle target = readFiles_[fileIdx];
        uint32_t bytes = std::min(op.bytes, kMaxTransfer);
        switch (op.cls) {
          case trace::OpClass::kGetAttr:
          case trace::OpClass::kOther: {
            r->kind = kGetAttr;
            auto res = co_await be.getattr(target);
            r->status = static_cast<int>(res.status().code());
            if (res.ok()) {
                auto want = store_.getattr(target).value();
                if (res.value().fileid != want.fileid ||
                    res.value().size != want.size) {
                    log.checkFailed("getattr disagrees with the FileStore");
                }
                r->payloadHash = util::mix64(res.value().fileid) ^
                                 res.value().size;
            }
            break;
          }
          case trace::OpClass::kLookup: {
            r->kind = kLookup;
            auto res = co_await be.lookup(store_.root(),
                                          "hot" + std::to_string(fileIdx));
            r->status = static_cast<int>(res.status().code());
            if (res.ok()) {
                if (!(res.value().fh == target)) {
                    log.checkFailed("lookup resolved the wrong handle");
                }
                r->payloadHash = res.value().fh.key();
            }
            break;
          }
          case trace::OpClass::kRead: {
            r->kind = kRead;
            // Block-aligned offset inside the file, whole transfer fits.
            uint64_t offset =
                (op.offset / dfs::kBlockBytes) % (kReadFileBytes / kMaxTransfer) *
                dfs::kBlockBytes;
            auto res = co_await be.read(target, offset, bytes);
            r->status = static_cast<int>(res.status().code());
            if (res.ok()) {
                std::vector<uint8_t> got = res.take();
                if (corruptRead_ && !got.empty()) {
                    got[got.size() / 2] ^= 0x01; // self-test corruption
                    corruptRead_ = false;
                }
                auto want = store_.read(target, offset, bytes);
                if (!want.ok() || got != want.value()) {
                    log.checkFailed("read returned bytes the FileStore "
                                    "never held");
                }
                r->payloadHash = util::fnv1a(got);
            }
            break;
          }
          case trace::OpClass::kNullPing: {
            r->kind = kNull;
            auto st = co_await be.null();
            r->status = static_cast<int>(st.code());
            break;
          }
          case trace::OpClass::kReadLink:
          case trace::OpClass::kStatFs: {
            r->kind = kStatFs;
            auto res = co_await be.statfs();
            r->status = static_cast<int>(res.status().code());
            if (res.ok()) {
                r->payloadHash = res.value().totalFiles;
            }
            break;
          }
          case trace::OpClass::kReadDir: {
            r->kind = kReadDir;
            auto res = co_await be.readdir(store_.root(), bytes);
            r->status = static_cast<int>(res.status().code());
            if (res.ok()) {
                auto all = store_.readdir(store_.root()).value();
                for (const auto &e : res.value()) {
                    bool known = std::any_of(
                        all.begin(), all.end(), [&e](const dfs::DirEntry &a) {
                            return a.fileid == e.fileid && a.name == e.name;
                        });
                    if (!known) {
                        log.checkFailed("readdir listed an unknown entry");
                    }
                }
                r->payloadHash = hashEntries(res.value());
            }
            break;
          }
          case trace::OpClass::kWrite: {
            r->kind = kWrite;
            std::vector<uint8_t> data(bytes);
            uint64_t x = util::mix64(seed_ ^ (uint64_t(client) << 40) ^
                                     r->index);
            for (uint8_t &b : data) {
                x = util::mix64(x);
                b = static_cast<uint8_t>(x);
            }
            r->payloadHash = util::fnv1a(data);
            auto st = co_await be.write(writeFiles_[client], 0,
                                        std::move(data));
            r->status = static_cast<int>(st.code());
            break;
          }
          default:
            REMORA_PANIC("perfbench: op class without a mapping");
        }
    }

    Scheme scheme_;
    size_t clients_;
    uint64_t seed_;
    bool corruptRead_;
    Schedule sched_;
    sim::Simulator sim_;
    net::Network network_{sim_, net::LinkParams{}};
    std::unique_ptr<mem::Node> serverNode_;
    std::unique_ptr<rmem::RmemEngine> serverEngine_;
    std::vector<std::unique_ptr<mem::Node>> clientNodes_;
    std::vector<std::unique_ptr<rmem::RmemEngine>> clientEngines_;
    dfs::FileStore store_;
    std::unique_ptr<dfs::FileServer> server_;
    std::vector<dfs::FileHandle> readFiles_;
    std::vector<dfs::FileHandle> writeFiles_;
    std::vector<std::unique_ptr<rpc::Hybrid1Client>> hyClients_;
    std::vector<std::unique_ptr<dfs::FileServiceBackend>> backends_;
    std::vector<dfs::DxBackend *> dx_;
    std::vector<std::unique_ptr<trace::WorkloadGen>> gens_;
    uint64_t dxAttempts_ = 0;
    std::vector<sim::Task<void>> loops_;
};

} // namespace

WorkloadSpec
dfsWorkload(const std::string &name)
{
    Scheme scheme;
    sim::Duration window;
    if (name == "dfs_dx") {
        scheme = Scheme::kDx;
        window = 1000 * sim::kMillisecond;
    } else if (name == "dfs_hy") {
        scheme = Scheme::kHy;
        window = 2000 * sim::kMillisecond;
    } else if (name == "dfs_dx_lossy") {
        scheme = Scheme::kDxLossy;
        window = 4000 * sim::kMillisecond;
    } else {
        REMORA_PANIC("perfbench: unknown DFS workload " + name);
    }
    WorkloadSpec w;
    w.name = name;
    sim::Time warmupEnd = 20 * sim::kMillisecond;
    w.schedule = {warmupEnd, warmupEnd + window};
    w.tracedSchedule = {warmupEnd, warmupEnd + 500 * sim::kMillisecond};
    w.usesWorkloadGen = true;
    w.lossy = scheme == Scheme::kDxLossy;
    w.make = [scheme](uint64_t seed, bool corruptRead,
                      Schedule sched) -> std::unique_ptr<Trial> {
        return std::make_unique<DfsTrial>(scheme, seed, corruptRead, sched);
    };
    return w;
}

} // namespace remora::perfbench
