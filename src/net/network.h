/**
 * @file
 * Cluster topology builder.
 *
 * Owns the links (and optional switch) that connect a set of
 * HostInterfaces, mirroring the two configurations the paper uses:
 *
 *  - wireDirect(): two hosts back to back, the paper's switchless
 *    measurement testbed;
 *  - wireSwitched(): every host on one output-queued switch, the
 *    cluster configuration the design targets.
 *
 * Addressing convention: every host gets a NodeId; senders place the
 * destination id in cell.vpi and their own id in cell.vci.
 */
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "net/fault.h"
#include "net/host_interface.h"
#include "net/link.h"
#include "net/switch.h"
#include "sim/simulator.h"

namespace remora::net {

/** Builder/owner of the physical network between host interfaces. */
class Network
{
  public:
    /**
     * @param simulator Owning simulator.
     * @param linkParams Parameters applied to every link built.
     */
    Network(sim::Simulator &simulator, const LinkParams &linkParams);

    /**
     * Register @p hif as node @p id. Ids must be unique and assigned
     * before wiring.
     */
    void addHost(NodeId id, HostInterface &hif);

    /**
     * Connect exactly two registered hosts back to back (one link each
     * way). Requires exactly two hosts.
     */
    void wireDirect();

    /**
     * Connect all registered hosts through one switch.
     *
     * @param fabricLatency Per-cell switch forwarding latency.
     */
    void wireSwitched(sim::Duration fabricLatency = sim::usec(2));

    /** The switch, when wired switched; nullptr otherwise. */
    Switch *fabric() { return switch_.get(); }

    /** All links, for stats inspection. */
    const std::vector<std::unique_ptr<Link>> &links() const { return links_; }

    /**
     * Install one FaultInjector per existing link, each seeded from
     * @p plan.seed folded with the link's name so the two directions of
     * a wire draw independent streams. Call after wiring; calling again
     * replaces the previous injectors.
     */
    void installFaults(const FaultPlan &plan);

    /** Sum of cells dropped across every installed injector. */
    uint64_t totalFaultDrops() const;

    /** Number of registered hosts. */
    size_t hostCount() const { return hosts_.size(); }

  private:
    /** Build a link with credits clamped to @p sink capacity. */
    Link &makeLink(const std::string &name, size_t sinkCapacity);

    sim::Simulator &sim_;
    LinkParams linkParams_;
    std::vector<std::pair<NodeId, HostInterface *>> hosts_;
    std::unordered_map<NodeId, HostInterface *> byId_;
    std::vector<std::unique_ptr<Link>> links_;
    std::vector<std::unique_ptr<FaultInjector>> injectors_;
    std::unique_ptr<Switch> switch_;
    bool wired_ = false;
};

} // namespace remora::net
