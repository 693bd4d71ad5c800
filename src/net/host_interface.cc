#include "net/host_interface.h"

#include "obs/trace.h"
#include "util/panic.h"

namespace remora::net {

HostInterface::HostInterface(sim::Simulator &simulator, std::string name)
    : sim_(simulator), name_(std::move(name)), traceNode_(obs::nodeOf(name_))
{}

void
HostInterface::attachTxLink(Link &link)
{
    REMORA_ASSERT(txLink_ == nullptr);
    txLink_ = &link;
}

void
HostInterface::setRxInterrupt(std::function<void()> handler)
{
    rxInterrupt_ = std::move(handler);
}

void
HostInterface::pushTx(const Cell &cell)
{
    REMORA_ASSERT(txLink_ != nullptr);
    txLink_->send(cell);
    cellsTx_.inc();
}

void
HostInterface::setDraining(bool draining)
{
    draining_ = draining;
    if (draining || !deferredIrq_) {
        return;
    }
    sim::EventKey key = *deferredIrq_;
    deferredIrq_.reset();
    if (sim_.passed(key)) {
        interruptPending_ = false;
    } else {
        sim_.scheduleAt(key, [this] { interrupt(); });
    }
}

void
HostInterface::interrupt()
{
    interruptPending_ = false;
    obs::instant(0, traceNode_, "net", "rx_irq",
                 obs::kv("fifo", rxFifo_.size()));
    if (rxInterrupt_) {
        rxInterrupt_();
    }
}

void
HostInterface::acceptCell(const Cell &cell)
{
    if (rxFifo_.size() >= kRxFifoCells) {
        // Credit flow control should make this unreachable; a drop here
        // is "catastrophic" per the paper's reliability assumption.
        REMORA_PANIC("RX FIFO overflow on " + name_ +
                     " (credit misconfiguration)");
    }
    rxFifo_.push(cell);
    cellsRx_.inc();
    sim_.noteDigest("net.rx",
                    static_cast<uint64_t>(cell.vpi) << 16 | cell.vci);
    if (cell.traceOp != 0 && cell.lastOfFrame()) {
        // Arrival anchor for the critical-path analyzer: this is the
        // moment the op's frame has fully crossed the wire; everything
        // between here and the drain span is controller + queueing.
        obs::instant(cell.traceOp, traceNode_, "net", obs::kCellArrivalEvent,
                     obs::kv("src", cell.vci));
    }
    if (deferredIrq_ && sim_.passed(*deferredIrq_)) {
        // The deferred interrupt's time came while the driver drained:
        // all it did was clear the pending flag.
        deferredIrq_.reset();
        interruptPending_ = false;
    }
    if (!interruptPending_ && rxInterrupt_) {
        interruptPending_ = true;
        sim::Time at = sim_.now() + kInterruptLatency;
        if (draining_ && sim_.policy() == nullptr) {
            deferredIrq_ = sim_.reserve(at);
        } else {
            sim_.scheduleAt(at, [this] { interrupt(); });
        }
    }
}

void
HostInterface::registerStats(obs::MetricRegistry &reg,
                             const std::string &prefix) const
{
    reg.add(prefix + ".cells_tx", cellsTx_);
    reg.add(prefix + ".cells_rx", cellsRx_);
    reg.addGauge(prefix + ".rx_depth",
                 [this] { return static_cast<double>(rxFifo_.size()); });
}

std::optional<Cell>
HostInterface::popRx()
{
    if (rxFifo_.empty()) {
        return std::nullopt;
    }
    Cell c = rxFifo_.front();
    rxFifo_.pop();
    if (upstream_ != nullptr) {
        upstream_->returnCredit();
    }
    return c;
}

} // namespace remora::net
