/**
 * @file
 * Host-network interface modeled on the FORE TCA-100.
 *
 * The TCA-100 sat on the TURBOChannel with *no DMA*: it exposed two cell
 * FIFOs, one toward the network and one from it, and the host CPU moved
 * every word with programmed I/O. remora reproduces that structure:
 *
 *  - pushTx() appends a host-built cell to the TX FIFO; the interface
 *    drains it onto the outgoing Link at wire speed.
 *  - Received cells land in the bounded RX FIFO; the first cell into an
 *    empty FIFO raises the RX interrupt (after a latency), and the
 *    kernel drains with popRx(), which releases a link credit.
 *
 * The CPU cost of the PIO transfers is charged by the *caller* (the
 * kernel emulation layer), because that is where the paper's costs live;
 * the interface itself only models buffering, ordering, and interrupts.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "net/cell.h"
#include "net/link.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace remora::net {

/** FIFO capacities and timing of a host interface. */
struct HostInterfaceParams
{
    /** TX FIFO capacity in cells. */
    size_t txFifoCells = 292;
    /** RX FIFO capacity in cells (bounds the link credit). */
    size_t rxFifoCells = 292;
    /** Delay from first cell in empty RX FIFO to interrupt delivery. */
    sim::Duration interruptLatency = sim::usec(2);
};

/** The node's network adapter: bounded FIFOs, PIO access, RX interrupt. */
class HostInterface : public CellSink
{
  public:
    /**
     * @param simulator Owning simulator.
     * @param params FIFO sizes and interrupt latency.
     * @param name Diagnostic name, e.g. "nodeA.nic".
     */
    HostInterface(sim::Simulator &simulator,
                  const HostInterfaceParams &params, std::string name);

    /** Attach the outgoing link (toward switch or peer). */
    void attachTxLink(Link &link);

    /**
     * Install the RX interrupt handler (the kernel's receive path).
     * Raised once per empty→non-empty FIFO transition.
     */
    void setRxInterrupt(std::function<void()> handler);

    /** True when the TX FIFO can take @p cells more cells. */
    bool txSpace(size_t cells = 1) const;

    /**
     * Host pushes one cell into the TX FIFO (PIO cost charged by the
     * caller). The caller must have checked txSpace().
     */
    void pushTx(const Cell &cell);

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
    size_t rxCapacity() const { return params_.rxFifoCells; }

    /** Total cells transmitted. */
    uint64_t cellsTx() const { return cellsTx_.value(); }

    /** Total cells received. */
    uint64_t cellsRx() const { return cellsRx_.value(); }

    /** The attached outgoing link; nullptr before attachTxLink(). */
    Link *txLink() const { return txLink_; }

    /** Delay from first RX cell to interrupt delivery. */
    sim::Duration interruptLatency() const { return params_.interruptLatency; }

    /**
     * Register this adapter's counters and FIFO-depth gauges under
     * "<prefix>.cells_tx" etc.
     */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

    // CellSink: network side delivers into the RX FIFO.
    void acceptCell(const Cell &cell) override;

  private:
    /** Move TX FIFO cells onto the link. */
    void drainTx();

    sim::Simulator &sim_;
    HostInterfaceParams params_;
    std::string name_;
    Link *txLink_ = nullptr;
    std::function<void()> rxInterrupt_;
    std::deque<Cell> txFifo_;
    std::deque<Cell> rxFifo_;
    bool interruptPending_ = false;
    sim::Counter cellsTx_;
    sim::Counter cellsRx_;
};

} // namespace remora::net
