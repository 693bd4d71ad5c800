#include "net/link.h"

#include <utility>

#include "net/fault.h"
#include "util/panic.h"

namespace remora::net {

Link::Link(sim::Simulator &simulator, const LinkParams &params,
           std::string name)
    : sim_(simulator), params_(params), name_(std::move(name)),
      credits_(params.credits)
{
    REMORA_ASSERT(params.bandwidthMbps > 0.0);
    REMORA_ASSERT(params.credits > 0);
    double bitsPerCell = Cell::kCellBytes * 8.0;
    double secs = bitsPerCell / (params.bandwidthMbps * 1e6);
    cellTime_ = static_cast<sim::Duration>(secs * 1e9 + 0.5);
}

void
Link::connect(CellSink &sink)
{
    REMORA_ASSERT(sink_ == nullptr);
    sink_ = &sink;
    sink.attachUpstream(this);
}

void
Link::send(const Cell &cell)
{
    REMORA_ASSERT(sink_ != nullptr);
    queue_.push(cell);
    pump();
}

void
Link::returnCredit(size_t n)
{
    // The credit indication travels back along the wire.
    sim::Time at = sim_.now() + params_.propagation;
    if (sim_.policy() != nullptr) {
        // A policy may run a same-instant event ahead of a smaller seq,
        // so a key cannot be known to have passed: run every arrival.
        sim_.scheduleAt(at, [this, n] {
            credits_ += n;
            pump();
        });
        return;
    }
    arrivals_.push(CreditArrival{sim_.reserve(at), n});
    wakeOnCredit();
}

void
Link::absorbCredits()
{
    while (!arrivals_.empty() && sim_.passed(arrivals_.front().key)) {
        credits_ += arrivals_.front().n;
        arrivals_.pop();
    }
}

void
Link::wakeOnCredit()
{
    absorbCredits();
    // Only a blocked link lets an arrival do more than count: it stays
    // blocked until the earliest one lands, which must then pump.
    if (creditWake_ || arrivals_.empty() || queue_.empty() || credits_ > 0 ||
        pumpScheduled_) {
        return;
    }
    creditWake_ = true;
    sim_.scheduleAt(arrivals_.front().key, [this] {
        creditWake_ = false;
        credits_ += arrivals_.front().n;
        arrivals_.pop();
        pump();
    });
}

void
Link::pump()
{
    if (pumpScheduled_) {
        return;
    }
    absorbCredits();
    while (!queue_.empty() && credits_ > 0) {
        sim::Time now = sim_.now();
        if (wireFreeAt_ > now) {
            // Wire busy: try again when it frees up.
            pumpScheduled_ = true;
            sim_.scheduleAt(wireFreeAt_, [this] {
                pumpScheduled_ = false;
                pump();
            });
            return;
        }
        Cell cell = queue_.front();
        queue_.pop();
        --credits_;
        wireFreeAt_ = now + cellTime_;
        cellsSent_.inc();
        // The cell is fully received one serialization + propagation
        // after transmission starts.
        sim::Time deliverAt = wireFreeAt_ + params_.propagation;
        if (faults_ != nullptr) {
            FaultInjector::Decision d = faults_->decide(cell, deliverAt);
            if (d.action == FaultInjector::Action::kDrop) {
                // The cell dies in flight. Its credit still comes back
                // after a propagation delay, as if the receiver had
                // drained it — flow control cannot see the loss.
                returnCredit();
                continue;
            }
            deliverAt += d.extraDelay;
        }
        sim_.scheduleAt(deliverAt, [this, cell] { sink_->acceptCell(cell); });
    }
    wakeOnCredit();
}

} // namespace remora::net
