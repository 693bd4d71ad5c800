/**
 * @file
 * Counters and gauges every benchmark cluster shares, read through the
 * layers' public accessors.
 */
#include <algorithm>

#include "perfbench.h"

namespace remora::perfbench {

namespace {

/**
 * CPU busy time up to @p edge: everything posted so far minus the part
 * still queued past the edge. FCFS keeps the CPU busy without a gap
 * from the edge until busyUntil, so that part is exactly the overhang.
 */
sim::Duration
busyAt(const sim::CpuResource &cpu, sim::Time edge)
{
    sim::Duration overhang = std::max<sim::Duration>(0, cpu.busyUntil() - edge);
    return cpu.totalBusy() - overhang;
}

} // namespace

Counters
clusterCounters(const ClusterView &v, sim::Time edge)
{
    Counters c;
    c.at = edge;
    c.events = v.sim->eventsProcessed();
    c.decisions = v.sim->decisionPoints();
    // Direct and switched wiring both name links "<from>-><to>".
    const std::string &nic = v.server->nic().name();
    for (const auto &link : v.network->links()) {
        const std::string &name = link->name();
        if (name.rfind(nic + "->", 0) == 0) {
            c.serverTxCells += link->cellsSent();
        } else if (name.size() > nic.size() &&
                   name.compare(name.size() - nic.size(), nic.size(), nic) ==
                       0) {
            c.serverRxCells += link->cellsSent();
        }
    }
    c.cells = v.server->nic().cellsTx();
    for (mem::Node *n : v.clients) {
        c.cells += n->nic().cellsTx();
        c.clientBusy += busyAt(n->cpu(), edge);
    }
    c.clients = v.clients.size();
    for (rmem::RmemEngine *e : v.engines) {
        const rmem::Wire &w = e->wire();
        c.msgs += w.messagesSent();
        c.msgBytes += w.bytesSent();
        c.retransmits += w.retransmits();
        c.acks += w.acksSent();
        c.fragments += w.fragmentsSent();
        c.sendFailures += w.sendFailures();
        c.notifications += e->stats().notificationsPosted.value();
        c.timeouts += e->stats().timeouts.value();
        c.vectors += e->stats().vectorsIssued.value();
        c.vectorSubOps += e->stats().vectorSubOps.value();
    }
    c.faultDrops = v.network->totalFaultDrops();
    sim::CpuResource &cpu = v.server->cpu();
    c.serverBusy = busyAt(cpu, edge);
    for (size_t k = 0; k < kCpuCats; ++k) {
        c.serverCat[k] = cpu.busyIn(static_cast<sim::CpuCategory>(k));
    }
    return c;
}

Gauges
clusterGauges(const ClusterView &v)
{
    Gauges g;
    g.pending = static_cast<double>(v.sim->pendingEvents());
    g.live = static_cast<double>(v.sim->livePendingEvents());
    g.serverRxDepth = static_cast<double>(v.server->nic().rxDepth());
    for (const auto &link : v.network->links()) {
        g.linkQueue =
            std::max(g.linkQueue, static_cast<double>(link->queueDepth()));
    }
    return g;
}

} // namespace remora::perfbench
