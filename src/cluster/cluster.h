/**
 * @file
 * One builder for the paper's two cluster configurations.
 *
 * The paper measures on two DECstations wired back to back and designs
 * for N workstations on an ATM switch. A ClusterSpec names the nodes
 * and picks the wiring; Cluster builds node i as NodeId i + 1 named
 * names[i], gives every node an RmemEngine, and wires them through a
 * net::Network. Everything a caller sets up differently (services,
 * fault plans, perturbation, tracing, race arming) stays with the
 * caller, on the public members below.
 *
 * Node names are part of the behaviour: they label traces, and
 * Network::installFaults seeds each link's fault stream from the link
 * name built out of them ("<a>.nic-><b>.nic" direct, "<n>.nic->sw" and
 * "sw-><n>.nic" switched).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/node.h"
#include "net/network.h"
#include "rmem/cost_model.h"
#include "rmem/engine.h"
#include "rmem/segment.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace remora::cluster {

/** What to build. */
struct ClusterSpec
{
    /** Node i gets NodeId i + 1 and the name names[i]. */
    std::vector<std::string> names;
    /** Every node on one switch; otherwise exactly two back to back. */
    bool switched = false;
    /** Per-cell switch forwarding latency; unused when direct. */
    sim::Duration fabricLatency = sim::usec(2);
    /** Cost model handed to every node's engine. */
    rmem::CostModel costs{};
};

/** Owner of the nodes, engines and network a ClusterSpec describes. */
class Cluster
{
  public:
    /** Build @p spec on a simulator the cluster owns. */
    explicit Cluster(const ClusterSpec &spec);

    /**
     * Build @p spec on @p simulator, which must outlive the cluster
     * (ScheduleExplorer hands each schedule a fresh one).
     */
    Cluster(sim::Simulator &simulator, const ClusterSpec &spec);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /**
     * Spawn a process named @p name on node index @p node and export a
     * fresh @p size-byte region of it, with all rights, as segment
     * @p name.
     */
    rmem::ImportedSegment
    exportOn(size_t node, const std::string &name, uint32_t size = 4096,
             rmem::NotifyPolicy policy = rmem::NotifyPolicy::kNever);

    /** Turn on the reliable wire on every node, in node order. */
    void enableReliability();

  private:
    void build(const ClusterSpec &spec);

    /** Declared first so it outlives everything built on it. */
    std::unique_ptr<sim::Simulator> ownedSim_;

  public:
    sim::Simulator &sim;
    net::Network network;
    /** Node index i is NodeId i + 1. */
    std::vector<std::unique_ptr<mem::Node>> nodes;
    std::vector<std::unique_ptr<rmem::RmemEngine>> engines;
};

} // namespace remora::cluster
