#include "net/fault.h"

#include "util/hash.h"

namespace remora::net {

FaultInjector::FaultInjector(sim::Simulator &simulator, const FaultPlan &plan,
                             const std::string &linkName)
    : sim_(simulator), plan_(plan), linkHash_(util::fnv1a(linkName)),
      rng_(plan.seed ^ util::mix64(linkHash_))
{}

FaultInjector::Decision
FaultInjector::decide(Cell &cell, sim::Time nominalArrival)
{
    Decision d;
    uint64_t ordinal = decisions_++;
    // The draw order below is fixed (drop, corrupt, delay) so a plan's
    // decision stream depends only on the cell sequence the link
    // carries, never on which faults actually fire.
    if (plan_.dropRate > 0.0 && rng_.bernoulli(plan_.dropRate)) {
        drops_.inc();
        sim_.noteDigest("fault.drop", linkHash_ ^ ordinal);
        d.action = Action::kDrop;
        return d;
    }
    if (plan_.corruptRate > 0.0 && rng_.bernoulli(plan_.corruptRate)) {
        size_t byte = rng_.uniformInt(Cell::kPayloadBytes);
        uint8_t bit = static_cast<uint8_t>(rng_.uniformInt(8));
        cell.payload[byte] ^= static_cast<uint8_t>(1u << bit);
        corrupts_.inc();
        sim_.noteDigest("fault.corrupt", linkHash_ ^ ordinal);
    }
    if (plan_.delayRate > 0.0 && rng_.bernoulli(plan_.delayRate)) {
        d.extraDelay += static_cast<sim::Duration>(
            1 + rng_.uniformInt(static_cast<uint64_t>(kMaxFaultDelay)));
        delays_.inc();
        sim_.noteDigest("fault.delay", linkHash_ ^ ordinal);
    }
    // A delivery landing inside a pause window slips to the window end
    // (plus whatever delay it already accrued): the receiver is stalled
    // and drains everything held for it when it resumes.
    sim::Time arrival = nominalArrival + d.extraDelay;
    for (const FaultPlan::Pause &p : plan_.pauses) {
        if (arrival >= p.from && arrival < p.until) {
            d.extraDelay += p.until - arrival;
            arrival = p.until;
            paused_.inc();
            sim_.noteDigest("fault.pause", linkHash_ ^ ordinal);
        }
    }
    return d;
}

} // namespace remora::net
