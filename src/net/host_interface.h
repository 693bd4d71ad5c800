/**
 * @file
 * Host-network interface modeled on the FORE TCA-100.
 *
 * The TCA-100 sat on the TURBOChannel with *no DMA*: it exposed two cell
 * FIFOs, one toward the network and one from it, and the host CPU moved
 * every word with programmed I/O. remora reproduces that structure:
 *
 *  - pushTx() hands a host-built cell to the outgoing Link, which
 *    queues it until wire time and credit allow. The TX FIFO never
 *    backs up behind the link's own queue, so it is not modeled.
 *  - Received cells land in the bounded RX FIFO; a cell arriving with
 *    no interrupt pending raises the RX interrupt (after a latency),
 *    and the kernel drains with popRx(), which releases a link credit.
 *    An interrupt raised while the kernel drains is a deferred event
 *    (see setDraining()).
 *
 * The CPU cost of the PIO transfers is charged by the *caller* (the
 * kernel emulation layer), because that is where the paper's costs live;
 * the interface itself only models buffering, ordering, and interrupts.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/cell.h"
#include "net/link.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "util/ring.h"

namespace remora::net {

/** RX FIFO capacity in cells (bounds the link credit). */
inline constexpr size_t kRxFifoCells = 292;

/** Delay from first cell in an empty RX FIFO to interrupt delivery. */
inline constexpr sim::Duration kInterruptLatency = sim::usec(2);

/** The node's network adapter: bounded FIFOs, PIO access, RX interrupt. */
class HostInterface : public CellSink
{
  public:
    /**
     * @param simulator Owning simulator.
     * @param name Diagnostic name, e.g. "nodeA.nic".
     */
    HostInterface(sim::Simulator &simulator, std::string name);

    /** Attach the outgoing link (toward switch or peer). */
    void attachTxLink(Link &link);

    /**
     * Install the RX interrupt handler (the kernel's receive path).
     * Raised once per empty→non-empty FIFO transition.
     */
    void setRxInterrupt(std::function<void()> handler);

    /**
     * Host pushes one cell toward the network (PIO cost charged by the
     * caller).
     */
    void pushTx(const Cell &cell);

    /**
     * The driver says whether it is draining the RX FIFO, and ignores
     * the RX interrupt while it is. So an interrupt raised while it
     * drains would do nothing if it fired then, and it stays off the
     * event queue until draining ends. Then it runs at the key it
     * reserved (sim::Simulator::reserve) if that is still ahead;
     * otherwise it has lapsed, and only its pending flag clears.
     */
    void setDraining(bool draining);

    /**
     * Host drains one cell from the RX FIFO (PIO cost charged by the
     * caller); returns a credit to the upstream link.
     *
     * @return The cell, or nullopt when the FIFO is empty.
     */
    std::optional<Cell> popRx();

    /** Cells currently waiting in the RX FIFO. */
    size_t rxDepth() const { return rxFifo_.size(); }

    /** RX FIFO capacity (upper bound for the incoming link's credits). */
    size_t rxCapacity() const { return kRxFifoCells; }

    /** Total cells transmitted. */
    uint64_t cellsTx() const { return cellsTx_.value(); }

    /**
     * Register this adapter's counters and RX FIFO depth gauge under
     * "<prefix>.cells_tx" etc.
     */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

    // CellSink: network side delivers into the RX FIFO.
    void acceptCell(const Cell &cell) override;

  private:
    /** The RX interrupt fires: clear the pending flag, run the handler. */
    void interrupt();

    sim::Simulator &sim_;
    std::string name_;
    /** The node this NIC belongs to, as traces name it. */
    std::string traceNode_;
    Link *txLink_ = nullptr;
    std::function<void()> rxInterrupt_;
    util::RingFifo<Cell> rxFifo_;
    bool interruptPending_ = false;
    bool draining_ = false;
    /** Key of the interrupt raised while draining, if any. */
    std::optional<sim::EventKey> deferredIrq_;
    sim::Counter cellsTx_;
    sim::Counter cellsRx_;
};

} // namespace remora::net
