/**
 * @file
 * Ablation A8: write-coherence tokens over the communication model.
 *
 * Section 5.1 argues a Calypso-style token scheme maps onto the
 * primitives with almost no control transfer: "Token acquire and
 * release can be implemented using compare-and-swap operations ...
 * For the commonly occurring sharing patterns in distributed file
 * systems, we expect the usage of control transfer for coherence to
 * be rare."
 *
 * Part 1 measures the three acquisition paths in isolation: cached
 * (token already held — no wire traffic), uncontended (one remote
 * CAS), and contended (revocation via control transfer + retry).
 *
 * Part 2 replays a Zipf-skewed write workload from two clients with
 * per-client affinity (each hot file is mostly written by one client,
 * the realistic DFS sharing pattern) and reports what fraction of
 * acquisitions needed any wire traffic at all, and what fraction
 * needed control transfer — the paper's "rare" claim, quantified.
 */
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "dfs/token.h"
#include "sim/random.h"
#include "util/strings.h"

using namespace remora;

namespace {

struct Harness : cluster::Cluster
{
    std::unique_ptr<dfs::TokenArea> area;
    std::vector<std::unique_ptr<dfs::TokenClient>> clients;

    Harness() : Cluster({.names = {"n1", "n2", "n3"}, .switched = true})
    {
        mem::Process &srv = nodes[0]->spawnProcess("server");
        dfs::TokenParams params;
        params.tokenSlots = 4096; // ample: accidental slot sharing is noise
        area = std::make_unique<dfs::TokenArea>(*engines[0], srv, params);
        for (int i = 1; i < 3; ++i) {
            mem::Process &proc = nodes[i]->spawnProcess("clerk");
            clients.push_back(std::make_unique<dfs::TokenClient>(
                *engines[i], proc, area->handle(), params));
        }
        sim.run();
    }
};

} // namespace

int
main()
{
    bench::banner("Ablation A8: token coherence — CAS acquire, "
                  "control-transfer revocation");

    bench::BenchReport report("ablation_tokens");

    // Part 1: the three acquisition paths.
    {
        Harness h;
        auto &c1 = *h.clients[0];
        auto &c2 = *h.clients[1];

        sim::Time t0 = h.sim.now();
        auto a = c1.acquire(1);
        bench::run(h.sim, a);
        double uncontendedUs = sim::toUsec(h.sim.now() - t0);
        h.sim.run();

        t0 = h.sim.now();
        auto b = c1.acquire(1);
        bench::run(h.sim, b);
        double cachedUs = sim::toUsec(h.sim.now() - t0);

        t0 = h.sim.now();
        auto c = c2.acquire(1); // c1 holds it: revocation required
        bench::run(h.sim, c);
        double contendedUs = sim::toUsec(h.sim.now() - t0);
        h.sim.run();

        util::TextTable table({"Acquisition path", "Latency (us)",
                               "Wire mechanism"});
        table.addRow({"cached (token held locally)", bench::fmt(cachedUs),
                      "none"});
        table.addRow({"uncontended", bench::fmt(uncontendedUs),
                      "1 remote CAS + tag write"});
        table.addRow({"contended", bench::fmt(contendedUs),
                      "revoke (control transfer) + retry CAS"});
        std::printf("%s\n", table.render().c_str());

        report.metric("acquire.cached_us", cachedUs, "us");
        report.metric("acquire.uncontended_us", uncontendedUs, "us");
        report.metric("acquire.contended_us", contendedUs, "us");
        report.check("cached_lt_uncontended_lt_contended",
                     cachedUs < uncontendedUs &&
                         uncontendedUs < contendedUs);
    }

    // Part 2: sharing-pattern replay.
    {
        Harness h;
        constexpr int kFiles = 32;
        constexpr int kWrites = 400;
        sim::Random rng(7);
        sim::Random::Zipf zipf(kFiles, 1.0);

        uint64_t acquisitions = 0;
        auto worker = [&](dfs::TokenClient *client, uint64_t affinity,
                          uint64_t seedMix) -> sim::Task<void> {
            sim::Random local(seedMix);
            sim::Random::Zipf pick(kFiles, 1.0);
            for (int i = 0; i < kWrites; ++i) {
                // Per-client affinity: interleave file ids so each
                // client's hot set is mostly private, with occasional
                // crossing — the common DFS sharing pattern.
                uint64_t file = pick.sample(local) * 2 + affinity;
                if (local.uniformInt(40) == 0) {
                    file ^= 1; // 2.5% of writes touch the other's files
                }
                auto s = co_await client->acquire(file);
                REMORA_ASSERT(s.ok());
                ++acquisitions;
                client->beginUse(file);
                co_await sim::delay(h.sim, sim::usec(100)); // the write
                client->endUse(file);
                // Token kept cached: release only on revocation.
            }
        };
        auto t1 = worker(h.clients[0].get(), 0, 11);
        auto t2 = worker(h.clients[1].get(), 1, 22);
        h.sim.run();
        REMORA_ASSERT(t1.done() && t2.done());

        uint64_t localHits =
            h.clients[0]->localHits() + h.clients[1]->localHits();
        uint64_t revokes = h.clients[0]->revocationsSent() +
                           h.clients[1]->revocationsSent();
        double localPct = 100.0 * static_cast<double>(localHits) /
                          static_cast<double>(acquisitions);
        double ctPct = 100.0 * static_cast<double>(revokes) /
                       static_cast<double>(acquisitions);

        std::printf("sharing-pattern replay: %llu token acquisitions "
                    "across 2 writers\n",
                    static_cast<unsigned long long>(acquisitions));
        std::printf("  served from the local token cache : %.1f%%\n",
                    localPct);
        std::printf("  needed control-transfer revocation: %.1f%%\n",
                    ctPct);
        std::printf("Shape check: control transfer for coherence is rare "
                    "(<10%% of acquisitions): %s\n",
                    ctPct < 10.0 ? "yes" : "NO");

        report.metric("replay.acquisitions",
                      static_cast<double>(acquisitions), "ops");
        report.metric("replay.local_hit_pct", localPct, "%");
        report.metric("replay.control_transfer_pct", ctPct, "%");
        report.check("control_transfer_rare", ctPct < 10.0);
    }
    report.write();
    return 0;
}
