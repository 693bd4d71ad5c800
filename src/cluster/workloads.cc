#include "cluster/workloads.h"

#include <cstdint>
#include <string>

#include "cluster/cluster.h"
#include "dfs/token.h"
#include "net/fault.h"
#include "rmem/notification.h"
#include "rmem/sync.h"
#include "rpc/hybrid1.h"
#include "rpc/transport.h"
#include "sim/task.h"
#include "util/panic.h"

namespace remora::cluster {
namespace {

/** Nodes "node1".."node<n>": back to back for two, else on a switch. */
ClusterSpec
world(uint32_t n)
{
    ClusterSpec spec;
    for (uint32_t i = 1; i <= n; ++i) {
        spec.names.push_back("node" + std::to_string(i));
    }
    spec.switched = n != 2;
    return spec;
}

// ----------------------------------------------------------------------
// Clean workloads (the gate: zero findings expected)
// ----------------------------------------------------------------------

/** One Hybrid-1 client's echo calls. */
sim::Task<void>
rpcCalls(rpc::Hybrid1Client *c, uint8_t tag)
{
    for (uint8_t i = 0; i < 2; ++i) {
        std::vector<uint8_t> args{tag, i};
        auto reply = co_await c->call(args);
        REMORA_ASSERT(reply.ok());
        REMORA_ASSERT(reply.value()[0] == tag);
    }
}

/** Hybrid-1 echo: two clients race their notified request writes. */
void
rpcWorkload(sim::Simulator &s)
{
    Cluster w(s, world(3));
    mem::Process &serverProc = w.nodes[0]->spawnProcess("rpc-server");
    rpc::Hybrid1Server server(*w.engines[0], serverProc);
    server.setHandler(
        [](net::NodeId,
           std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });
    server.start();
    mem::Process &p1 = w.nodes[1]->spawnProcess("rpc-client1");
    mem::Process &p2 = w.nodes[2]->spawnProcess("rpc-client2");
    rpc::Hybrid1Client c1(*w.engines[1], p1, server.requestSegmentHandle(),
                          server.allocSlot());
    rpc::Hybrid1Client c2(*w.engines[2], p2, server.requestSegmentHandle(),
                          server.allocSlot());
    auto t1 = rpcCalls(&c1, 0x11);
    auto t2 = rpcCalls(&c2, 0x22);
    s.run();
    REMORA_ASSERT(t1.done() && t2.done());
}

/** Consume @p want notifications off a channel. */
sim::Task<void>
notifyReader(rmem::NotificationChannel *ch, int want)
{
    for (int i = 0; i < want; ++i) {
        rmem::Notification n = co_await ch->next();
        REMORA_ASSERT(n.count == 3);
    }
}

/** Two racing notified writes consumed by a blocking channel reader. */
void
notifyWorkload(sim::Simulator &s)
{
    Cluster w(s, world(3));
    auto seg = w.exportOn(0, "mc.notify", 4096,
                          rmem::NotifyPolicy::kConditional);
    rmem::NotificationChannel *ch = w.engines[0]->channel(seg.descriptor);
    REMORA_ASSERT(ch != nullptr);
    auto reader = notifyReader(ch, 2);
    auto w1 = w.engines[1]->write(seg, 64, {1, 2, 3}, true);
    auto w2 = w.engines[2]->write(seg, 128, {4, 5, 6}, true);
    s.run();
    REMORA_ASSERT(reader.done());
    REMORA_ASSERT(w1.done() && w1.result().ok());
    REMORA_ASSERT(w2.done() && w2.result().ok());
}

/**
 * Two racing vectored writes, each carrying notify sub-ops that
 * coalesce behind one doorbell, against a blocking channel reader.
 * Every interleaving must deliver all four records (no lost wakeup
 * from the batched post) and ring exactly one doorbell per batch.
 */
void
vectorNotifyWorkload(sim::Simulator &s)
{
    Cluster w(s, world(3));
    auto seg = w.exportOn(0, "mc.vector", 4096,
                          rmem::NotifyPolicy::kConditional);
    rmem::NotificationChannel *ch = w.engines[0]->channel(seg.descriptor);
    REMORA_ASSERT(ch != nullptr);
    auto reader = notifyReader(ch, 4);
    auto makeBatch = [&seg](uint32_t base) {
        std::vector<rmem::BatchBuilder::Write> ops;
        ops.push_back({seg, base, {1, 2, 3}, true});
        ops.push_back({seg, base + 64, {4, 5, 6}, true});
        return ops;
    };
    auto w1 = w.engines[1]->writev(makeBatch(0));
    auto w2 = w.engines[2]->writev(makeBatch(256));
    s.run();
    REMORA_ASSERT(reader.done());
    REMORA_ASSERT(w1.done() && w1.result().ok());
    REMORA_ASSERT(w2.done() && w2.result().ok());
    REMORA_ASSERT(w.engines[0]->stats().vectorDoorbells.value() == 2);
    REMORA_ASSERT(w.engines[0]->stats().notificationsPosted.value() == 4);
}

/** Two nodes contending one remote spin-lock word. */
void
syncWorkload(sim::Simulator &s)
{
    Cluster w(s, world(2));
    auto page = w.exportOn(0, "mc.locks");
    auto scratch = w.exportOn(1, "mc.scratch");
    rmem::SpinLock la(*w.engines[1], page, 0, scratch.descriptor, 0, 0x201);
    rmem::SpinLock lb(*w.engines[1], page, 0, scratch.descriptor, 4, 0x202);
    auto hold = [](rmem::SpinLock *lock, sim::Simulator *sp) -> sim::Task<void> {
        auto a = co_await lock->acquire();
        REMORA_ASSERT(a.ok());
        co_await sim::delay(*sp, sim::usec(40));
        auto r = co_await lock->release();
        REMORA_ASSERT(r.ok());
    };
    auto w1 = hold(&la, &s);
    auto w2 = hold(&lb, &s);
    s.run();
    REMORA_ASSERT(w1.done() && w2.done());
}

/** Token coherence with a revocation (the rare control transfer). */
void
dfsTokenWorkload(sim::Simulator &s)
{
    Cluster w(s, world(3));
    mem::Process &serverProc = w.nodes[0]->spawnProcess("tok-server");
    dfs::TokenArea area(*w.engines[0], serverProc);
    mem::Process &p1 = w.nodes[1]->spawnProcess("tok-clerk1");
    mem::Process &p2 = w.nodes[2]->spawnProcess("tok-clerk2");
    dfs::TokenClient c1(*w.engines[1], p1, area.handle());
    dfs::TokenClient c2(*w.engines[2], p2, area.handle());
    auto useToken = [](dfs::TokenClient *c, sim::Simulator *sp,
                       sim::Duration dwell) -> sim::Task<void> {
        auto st = co_await c->acquire(42);
        REMORA_ASSERT(st.ok());
        c->beginUse(42);
        co_await sim::delay(*sp, dwell);
        c->endUse(42);
    };
    auto w1 = useToken(&c1, &s, sim::usec(80));
    auto w2 = useToken(&c2, &s, sim::usec(40));
    s.run();
    REMORA_ASSERT(w1.done() && w2.done());
}

/**
 * Notified writes across a dropping link: the reliable wire must
 * deliver every one exactly once and wake the reader under any
 * schedule, with retransmission timers racing delivery and acks.
 */
void
lossyWriteWorkload(sim::Simulator &s)
{
    Cluster w(s, world(2));
    w.enableReliability();
    auto seg = w.exportOn(0, "mc.lossy", 4096,
                          rmem::NotifyPolicy::kConditional);
    net::FaultPlan plan;
    plan.seed = 7;
    plan.dropRate = 0.25;
    w.network.installFaults(plan);
    rmem::NotificationChannel *ch = w.engines[0]->channel(seg.descriptor);
    REMORA_ASSERT(ch != nullptr);
    auto reader = notifyReader(ch, 3);
    auto w1 = w.engines[1]->write(seg, 0, {1, 2, 3}, true);
    auto w2 = w.engines[1]->write(seg, 64, {4, 5, 6}, true);
    auto w3 = w.engines[1]->write(seg, 128, {7, 8, 9}, true);
    s.run();
    REMORA_ASSERT(reader.done());
    REMORA_ASSERT(w1.done() && w1.result().ok());
    REMORA_ASSERT(w2.done() && w2.result().ok());
    REMORA_ASSERT(w3.done() && w3.result().ok());
    REMORA_ASSERT(w.engines[1]->wire().sendFailures() == 0);
}

/** One retried RPC call; the reply must echo the tag. */
sim::Task<void>
lossyRpcCall(rpc::RpcTransport *c, uint8_t tag)
{
    std::vector<uint8_t> args(1, tag);
    auto r = co_await c->call(1, 3, args, sim::msec(3), /*maxRetries=*/10);
    REMORA_ASSERT(r.ok());
    REMORA_ASSERT(r.value()[0] == tag);
}

/**
 * Retried RPC across a dropping link with wire reliability OFF: the
 * transport's at-most-once layer alone must recover — every call
 * completes, and the handler runs exactly once per logical call no
 * matter how timeouts, duplicates, and late replies interleave.
 */
void
lossyRpcWorkload(sim::Simulator &s)
{
    Cluster w(s, world(2));
    rpc::RpcTransport server(w.engines[0]->wire());
    rpc::RpcTransport client(w.engines[1]->wire());
    int handlerRuns = 0;
    int *runs = &handlerRuns;
    server.registerProc(
        3, [runs](net::NodeId, std::vector<uint8_t> args)
               -> sim::Task<std::vector<uint8_t>> {
            ++*runs;
            co_return args;
        });
    net::FaultPlan plan;
    plan.seed = 11;
    plan.dropRate = 0.35;
    w.network.installFaults(plan);
    auto t1 = lossyRpcCall(&client, 0x51);
    auto t2 = lossyRpcCall(&client, 0x52);
    s.run();
    REMORA_ASSERT(t1.done() && t2.done());
    REMORA_ASSERT(handlerRuns == 2);
}

// ----------------------------------------------------------------------
// Seeded workloads (planted bugs the explorer must find)
// ----------------------------------------------------------------------

/** Acquire @p first, dwell, then acquire @p second. */
sim::Task<void>
lockOrderWorker(rmem::SpinLock *first, rmem::SpinLock *second,
                sim::Simulator *s)
{
    auto a = co_await first->acquire();
    REMORA_ASSERT(a.ok());
    // Dwell long enough that both workers hold their first lock before
    // either attempts its second: the classic cross-order deadlock.
    co_await sim::delay(*s, sim::usec(200));
    // The planted cross-order deadlock `remora explore` must rediscover.
    // NOLINTNEXTLINE(remora-lock-across-suspension)
    auto b = co_await second->acquire();
    REMORA_ASSERT(b.ok());
    auto rb = co_await second->release();
    REMORA_ASSERT(rb.ok());
    auto ra = co_await first->release();
    REMORA_ASSERT(ra.ok());
}

/** Cross-order acquisition of two lock words: a 2-party wait cycle. */
void
deadlockWorkload(sim::Simulator &s)
{
    Cluster w(s, world(2));
    auto page = w.exportOn(0, "mc.locks");
    auto scratch = w.exportOn(1, "mc.scratch");
    rmem::SpinLock l0a(*w.engines[1], page, 0, scratch.descriptor, 0, 0x101);
    rmem::SpinLock l64a(*w.engines[1], page, 64, scratch.descriptor, 0, 0x101);
    rmem::SpinLock l64b(*w.engines[1], page, 64, scratch.descriptor, 4, 0x102);
    rmem::SpinLock l0b(*w.engines[1], page, 0, scratch.descriptor, 4, 0x102);
    auto w1 = lockOrderWorker(&l0a, &l64a, &s);
    auto w2 = lockOrderWorker(&l64b, &l0b, &s);
    s.run();
}

/**
 * A post and a single poll race at the same instant: post-then-poll
 * consumes the token, poll-then-post strands it forever.
 */
void
lostWakeupWorkload(sim::Simulator &s)
{
    mem::Node node(s, 1, "node");
    rmem::CostModel costs;
    rmem::NotificationChannel ch(node.cpu(), costs);
    ch.setHangLabel("mc.token");
    rmem::NotificationChannel *chp = &ch;
    s.schedule(sim::usec(10), [chp] {
        rmem::Notification n;
        n.srcNode = 2;
        chp->post(n);
    });
    s.schedule(sim::usec(10), [chp] {
        rmem::Notification out;
        (void)chp->tryNext(out); // one poll, then give up
    });
    s.run();
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> r = {
        {"rpc", rpcWorkload, false},
        {"notify", notifyWorkload, false},
        {"vector-notify", vectorNotifyWorkload, false},
        {"sync", syncWorkload, false},
        {"dfs-token", dfsTokenWorkload, false},
        {"lossy-write", lossyWriteWorkload, false},
        {"lossy-rpc", lossyRpcWorkload, false},
        {"deadlock", deadlockWorkload, true},
        {"lost-wakeup", lostWakeupWorkload, true},
    };
    return r;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : workloads()) {
        if (name == w.name) {
            return &w;
        }
    }
    return nullptr;
}

} // namespace remora::cluster
