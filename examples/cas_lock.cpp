/**
 * @file
 * A distributed spinlock built from the CAS meta-instruction (§3.4).
 *
 * "A third option is to use the synchronization provided by the CAS
 * operation supported by the communication model. This primitive is
 * sufficiently powerful to build higher level synchronization
 * primitives."
 *
 * A lock word and a shared counter live in one node's exported
 * segment. Two clients on other machines repeatedly: acquire the lock
 * with remote CAS (spinning with backoff on failure), read-modify-write
 * the counter with remote read + remote write, and release the lock
 * with a plain remote write. If mutual exclusion held, the final
 * counter equals the total number of increments.
 */
#include <cstdio>

#include "cluster/cluster.h"
#include "sim/task.h"
#include "util/bytes.h"
#include "util/strings.h"

using namespace remora;

namespace {

constexpr uint32_t kUnlocked = 0;
constexpr uint32_t kIncrements = 50;

/** Lock word at offset 0, counter at offset 4 of the shared segment. */
struct Worker
{
    rmem::RmemEngine *engine = nullptr;
    mem::Process *proc = nullptr;
    rmem::ImportedSegment shared;
    rmem::SegmentId scratch = 0;
    mem::Vaddr scratchBase = 0;
    uint32_t lockId = 0; // our non-zero owner tag
    uint64_t casRetries = 0;
};

sim::Task<void>
workerLoop(Worker *w)
{
    auto &sim = w->engine->node().simulator();
    for (uint32_t i = 0; i < kIncrements; ++i) {
        // Acquire: CAS(lock, UNLOCKED -> our id), spin with backoff.
        sim::Duration backoff = sim::usec(50);
        for (;;) {
            auto cas = co_await w->engine->cas(w->shared, 0, kUnlocked,
                                               w->lockId, w->scratch, 0);
            REMORA_ASSERT(cas.status.ok());
            if (cas.success) {
                break;
            }
            ++w->casRetries;
            co_await sim::delay(sim, backoff);
            backoff = std::min<sim::Duration>(backoff * 2, sim::usec(400));
        }

        // Critical section: remote read, increment, remote write.
        auto rd = co_await w->engine->read(w->shared, 4, w->scratch, 4, 4);
        REMORA_ASSERT(rd.status.ok());
        util::ByteReader r(rd.data);
        uint32_t counter = r.getU32() + 1;
        util::ByteWriter wr(4);
        wr.putU32(counter);
        auto ws = co_await w->engine->write(
            w->shared, 4,
            std::vector<uint8_t>(wr.bytes().begin(), wr.bytes().end()));
        REMORA_ASSERT(ws.ok());

        // Release: plain remote write of UNLOCKED. The single-word
        // atomicity guarantee (§3.4) makes this safe.
        util::ByteWriter rel(4);
        rel.putU32(kUnlocked);
        ws = co_await w->engine->write(
            w->shared, 0,
            std::vector<uint8_t>(rel.bytes().begin(), rel.bytes().end()));
        REMORA_ASSERT(ws.ok());
    }
}

} // namespace

int
main()
{
    std::printf("remora CAS-lock example: two clients incrementing a "
                "shared counter %u times each\n\n",
                kIncrements);

    cluster::Cluster c({.names = {"home", "client1", "client2"},
                        .switched = true});

    mem::Process &homeProc = c.nodes[0]->spawnProcess("registry");
    mem::Vaddr base = homeProc.space().allocRegion(4096);
    auto shared = c.engines[0]->exportSegment(
        homeProc, base, 4096, rmem::Rights::kAll,
        rmem::NotifyPolicy::kNever, "lock.page");
    REMORA_ASSERT(shared.ok());

    Worker w1, w2;
    auto setup = [&shared](Worker &w, rmem::RmemEngine &engine,
                           uint32_t tag) {
        w.engine = &engine;
        w.proc = &engine.node().spawnProcess("worker");
        w.shared = shared.value();
        w.scratchBase = w.proc->space().allocRegion(4096);
        auto s = engine.exportSegment(*w.proc, w.scratchBase, 4096,
                                      rmem::Rights::kRead,
                                      rmem::NotifyPolicy::kNever, "scratch");
        REMORA_ASSERT(s.ok());
        w.scratch = s.value().descriptor;
        w.lockId = tag;
    };
    setup(w1, *c.engines[1], 0x1001);
    setup(w2, *c.engines[2], 0x1002);

    auto t1 = workerLoop(&w1);
    auto t2 = workerLoop(&w2);
    c.sim.run();
    REMORA_ASSERT(t1.done() && t2.done());

    auto counter = homeProc.space().readWord(base + 4);
    std::printf("final counter: %u (expected %u)\n", counter.value(),
                2 * kIncrements);
    std::printf("CAS retries under contention: client1=%llu client2=%llu\n",
                static_cast<unsigned long long>(w1.casRetries),
                static_cast<unsigned long long>(w2.casRetries));
    std::printf("elapsed simulated time: %s\n",
                util::formatDuration(c.sim.now()).c_str());
    REMORA_ASSERT(counter.value() == 2 * kIncrements);
    std::printf("mutual exclusion held.\n");
    return 0;
}
