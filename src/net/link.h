/**
 * @file
 * Unidirectional, credit-flow-controlled point-to-point link.
 *
 * The paper's design assumptions (§3) rely on "hardware flow-control ...
 * that can guarantee that data packets are delivered reliably"; a cell
 * drop inside the cluster is treated as catastrophic. The Link therefore
 * never drops: cells queue at the sender until the receiver has both
 * wire time and buffer credit for them.
 *
 *  - Transmission is serialized at the configured bandwidth (one cell
 *    occupies the wire for 53*8/bandwidth seconds).
 *  - Each cell consumes one credit; the receiver returns credits as it
 *    drains its bounded FIFO, and the credit signal takes a propagation
 *    delay to travel back.
 *
 * A credit arrival is a deferred event (sim::Simulator::reserve). It
 * changes more than the credit count only when it lands while the link
 * is *credit-blocked* — cells queued, no credit, no wire wake pending —
 * so only then does it run as an event, at the key it reserved; every
 * other arrival is added when the link next reads its credits.
 */
#pragma once

#include <cstdint>
#include <string>

#include "net/cell.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "util/ring.h"

namespace remora::net {

class FaultInjector;
class Link;

/** Receiving endpoint of a Link. */
class CellSink
{
  public:
    virtual ~CellSink() = default;

    /**
     * Deliver one cell. The link guarantees it held a credit, so the
     * sink must have buffer space.
     */
    virtual void acceptCell(const Cell &cell) = 0;

    /** Called by Link::connect so the sink can return credits. */
    void attachUpstream(Link *link) { upstream_ = link; }

  protected:
    /** The link feeding this sink; used for credit returns. */
    Link *upstream_ = nullptr;
};

/** Physical parameters of a link. */
struct LinkParams
{
    /** Wire bandwidth in megabits per second (FORE testbed: 140). */
    double bandwidthMbps = 140.0;
    /** One-way propagation delay. */
    sim::Duration propagation = sim::usec(1);
    /**
     * Receiver buffer credit (cells in flight + buffered). Must not
     * exceed the receiving FIFO's capacity.
     */
    size_t credits = 64;
};

/** One direction of a wire between two devices. */
class Link
{
  public:
    /**
     * @param simulator Owning simulator.
     * @param params Physical parameters.
     * @param name Diagnostic name, e.g. "client->server".
     */
    Link(sim::Simulator &simulator, const LinkParams &params,
         std::string name);

    Link(const Link &) = delete;
    Link &operator=(const Link &) = delete;

    /** Attach the receiving endpoint; must happen before any send. */
    void connect(CellSink &sink);

    /**
     * Queue one cell for transmission. Never drops; the cell waits for
     * wire availability and receiver credit.
     */
    void send(const Cell &cell);

    /**
     * Return @p n credits from the receiver side (it drained cells from
     * its buffer). The credit takes one propagation delay to reach the
     * sender.
     */
    void returnCredit(size_t n = 1);

    /** Wire time for one cell at this link's bandwidth. */
    sim::Duration cellTime() const { return cellTime_; }

    /** Cells transmitted since construction. */
    uint64_t cellsSent() const { return cellsSent_.value(); }

    /** Cells currently waiting for wire or credit. */
    size_t queueDepth() const { return queue_.size(); }

    /**
     * Install (or clear, with nullptr) a fault injector consulted for
     * every cell leaving the wire. The link does not own it. With an
     * injector installed the "never drops" guarantee above no longer
     * holds — recovery belongs to the layers on top.
     */
    void setFaultInjector(FaultInjector *injector) { faults_ = injector; }

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

  private:
    /** A credit on its way back: @p n credits land at @p key. */
    struct CreditArrival
    {
        sim::EventKey key;
        size_t n;
    };

    /** Transmit queued cells while wire and credit allow. */
    void pump();

    /** Add every credit arrival whose key has passed. */
    void absorbCredits();

    /** When credit-blocked, run the earliest arrival as an event. */
    void wakeOnCredit();

    sim::Simulator &sim_;
    LinkParams params_;
    std::string name_;
    CellSink *sink_ = nullptr;
    FaultInjector *faults_ = nullptr;
    sim::Duration cellTime_;
    util::RingFifo<Cell> queue_;
    size_t credits_;
    util::RingFifo<CreditArrival> arrivals_; ///< In key order.
    sim::Time wireFreeAt_ = 0;
    bool pumpScheduled_ = false;
    bool creditWake_ = false; ///< arrivals_.front() is queued.
    sim::Counter cellsSent_;
};

} // namespace remora::net
