#include "net/switch.h"

#include <utility>

#include "obs/trace.h"
#include "util/panic.h"

namespace remora::net {

Switch::Switch(sim::Simulator &simulator, sim::Duration fabricLatency,
               std::string name)
    : sim_(simulator), fabricLatency_(fabricLatency), name_(std::move(name))
{}

size_t
Switch::addPort(Link &outputLink)
{
    auto port = std::make_unique<PortState>();
    port->output = &outputLink;
    port->input.parent = this;
    ports_.push_back(std::move(port));
    return ports_.size() - 1;
}

CellSink &
Switch::inputSink(size_t port)
{
    REMORA_ASSERT(port < ports_.size());
    return ports_[port]->input;
}

void
Switch::route(NodeId dst, size_t port)
{
    REMORA_ASSERT(port < ports_.size());
    if (routes_.size() <= dst) {
        routes_.resize(size_t{dst} + 1, nullptr);
    }
    routes_[dst] = ports_[port]->output;
}

void
Switch::InSink::acceptCell(const Cell &cell)
{
    // Input buffering is released immediately: return the credit to the
    // upstream link and push the cell through the fabric.
    if (upstream_ != nullptr) {
        upstream_->returnCredit();
    }
    parent->forward(cell);
}

void
Switch::forward(const Cell &cell)
{
    Link *out = cell.vpi < routes_.size() ? routes_[cell.vpi] : nullptr;
    if (out == nullptr) {
        REMORA_PANIC("switch " + name_ + ": no route for node " +
                     std::to_string(cell.vpi));
    }
    forwarded_.inc();
    obs::instant(0, name_, "net", "hop", obs::kv("dst", cell.vpi),
                 obs::kv("src", cell.vci));
    sim_.schedule(fabricLatency_, [out, cell] { out->send(cell); });
}

} // namespace remora::net
