/**
 * @file
 * Output-queued ATM cell switch.
 *
 * The paper's testbed was switchless (two hosts back to back) but the
 * design targets "a modest number of high-performance workstations" on a
 * switched LAN, and notes that "loading at switches is a potential
 * performance problem". The Switch lets multi-node experiments (name
 * service across N machines, DFS client scaling) run over a realistic
 * store-and-forward fabric:
 *
 *  - Cells route on their VPI (destination node id) through a routing
 *    table populated by the Network builder.
 *  - Forwarding costs a fixed fabric latency, then the cell joins the
 *    output link's queue (output queuing; the link provides per-output
 *    serialization and downstream credit).
 *  - Input ports return upstream credit as soon as a cell is forwarded
 *    into the fabric, so input never blocks (buffering concentrates at
 *    outputs, observable via Link::queueDepth()).
 *  - A cell with no route is a configuration error and panics.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/cell.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace remora::net {

/** N-port output-queued cell switch with VPI routing. */
class Switch
{
  public:
    /**
     * @param simulator Owning simulator.
     * @param fabricLatency Per-cell forwarding latency through the
     *        fabric (paper: "only small additional latency").
     * @param name Diagnostic name.
     */
    Switch(sim::Simulator &simulator, sim::Duration fabricLatency,
           std::string name);

    /**
     * Add a port whose output side transmits on @p outputLink.
     *
     * @return The port index, used in route().
     */
    size_t addPort(Link &outputLink);

    /** The cell sink for traffic arriving *into* port @p port. */
    CellSink &inputSink(size_t port);

    /** Route destination node id @p dst to output port @p port. */
    void route(NodeId dst, size_t port);

    /** Cells forwarded since construction. */
    uint64_t cellsForwarded() const { return forwarded_.value(); }

  private:
    /** Look up the route and enqueue on the output link. */
    void forward(const Cell &cell);

    struct InSink : CellSink
    {
        Switch *parent = nullptr;
        void acceptCell(const Cell &cell) override;
    };

    /** One attachment point. */
    struct PortState
    {
        Link *output = nullptr;
        InSink input;
    };

    sim::Simulator &sim_;
    sim::Duration fabricLatency_;
    std::string name_;
    std::vector<std::unique_ptr<PortState>> ports_;
    /** Output link per destination node id; nullptr where unrouted. */
    std::vector<Link *> routes_;
    sim::Counter forwarded_;
};

} // namespace remora::net
