/**
 * @file
 * The distributed segment name service across a switched cluster (§4).
 *
 * Three workstations, a name clerk on each (no central server). The
 * example walks export, hinted and hint-less import, the import cache,
 * control-transfer lookup, revocation, stale-handle rejection, and the
 * periodic refresh that purges dead cache entries.
 */
#include <cstdio>

#include "cluster/cluster.h"
#include "names/clerk.h"
#include "sim/task.h"
#include "util/strings.h"

using namespace remora;

namespace {

void
stamp(sim::Simulator &sim, const char *who, const std::string &what)
{
    std::printf("[%-9s] %-7s %s\n", util::formatDuration(sim.now()).c_str(),
                who, what.c_str());
}

sim::Task<void>
story(sim::Simulator *sim, names::NameClerk *alpha, names::NameClerk *beta,
      names::NameClerk *gamma, mem::Process *owner)
{
    // alpha exports a segment under a cluster-visible name.
    mem::Vaddr base = owner->space().allocRegion(16384);
    auto exported = co_await alpha->exportByName(
        owner, base, 16384, rmem::Rights::kRead | rmem::Rights::kWrite,
        rmem::NotifyPolicy::kConditional, "db.index");
    REMORA_ASSERT(exported.ok());
    stamp(*sim, "alpha", "exported 'db.index' (16 KB, read+write)");

    // beta imports with a user-supplied hint: one remote read.
    sim::Time t0 = sim->now();
    auto imp = co_await beta->import("db.index", 1);
    REMORA_ASSERT(imp.ok());
    stamp(*sim, "beta",
          "imported 'db.index' with hint -> node " +
              std::to_string(imp.value().node) + " in " +
              util::formatDuration(sim->now() - t0));

    // Second import hits beta's cache: no wire traffic at all.
    t0 = sim->now();
    imp = co_await beta->import("db.index", 1);
    REMORA_ASSERT(imp.ok());
    stamp(*sim, "beta",
          "re-imported from the import cache in " +
              util::formatDuration(sim->now() - t0));

    // gamma has no hint: the clerk probes peers in id order.
    t0 = sim->now();
    auto g = co_await gamma->import("db.index", std::nullopt);
    REMORA_ASSERT(g.ok());
    stamp(*sim, "gamma",
          "imported without a hint (peer sweep) in " +
              util::formatDuration(sim->now() - t0));

    // gamma asks again via control transfer, for comparison.
    t0 = sim->now();
    g = co_await gamma->import("db.index", 1, true,
                               names::ProbePolicy::kControlOnly);
    REMORA_ASSERT(g.ok());
    stamp(*sim, "gamma",
          "forced control-transfer lookup in " +
              util::formatDuration(sim->now() - t0) +
              " (the expensive path)");

    // A lookup for an absent name fails fast: the first probe reads an
    // empty bucket, which is a definitive answer.
    auto missing = co_await beta->import("no.such.name", 1);
    stamp(*sim, "beta",
          "lookup of 'no.such.name' -> " + missing.status().toString());

    // alpha revokes. Deletion is local; beta still holds a cached,
    // now-stale handle.
    auto revoked = co_await alpha->revoke("db.index");
    REMORA_ASSERT(revoked.ok());
    stamp(*sim, "alpha", "revoked 'db.index' (local tombstone + new "
                         "generation)");

    // Using the stale handle is rejected remotely with a stale NAK.
    auto stale = co_await beta->engine().read(
        imp.value(), 0, names::NameClerk::kScratchDescriptor, 0, 24, false,
        sim::msec(10));
    stamp(*sim, "beta",
          "read through the stale handle -> " + stale.status.toString());

    // A refresh pass notices the tombstone and purges the cache entry.
    co_await beta->refresh();
    stamp(*sim, "beta",
          "refresh purged " +
              std::to_string(beta->stats().refreshPurges.value()) +
              " stale import(s)");

    auto gone = co_await beta->import("db.index", 1);
    stamp(*sim, "beta",
          "post-refresh lookup -> " + gone.status().toString());
}

} // namespace

int
main()
{
    std::printf("remora name-service example: three clerks, no central "
                "server\n\n");

    cluster::Cluster c({.names = {"alpha", "beta", "gamma"},
                        .switched = true});

    names::NameClerk alpha(*c.engines[0]), beta(*c.engines[1]),
        gamma(*c.engines[2]);
    alpha.addPeer(2);
    alpha.addPeer(3);
    beta.addPeer(1);
    beta.addPeer(3);
    gamma.addPeer(1);
    gamma.addPeer(2);

    mem::Process &owner = c.nodes[0]->spawnProcess("db");
    auto t = story(&c.sim, &alpha, &beta, &gamma, &owner);
    c.sim.run();
    REMORA_ASSERT(t.done());

    std::printf("\nclerk stats: beta remote reads %llu, gamma control "
                "transfers %llu\n",
                static_cast<unsigned long long>(
                    beta.stats().remoteReads.value()),
                static_cast<unsigned long long>(
                    gamma.stats().controlTransfers.value()));
    return 0;
}
