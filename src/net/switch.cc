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
    port->input.port = port.get();
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
    routes_[dst] = port;
}

void
Switch::InSink::acceptCell(const Cell &cell)
{
    // Input buffering is released immediately: return the credit to the
    // upstream link and push the cell through the fabric.
    if (upstream_ != nullptr) {
        upstream_->returnCredit();
    }
    parent->forward(cell, *port);
}

void
Switch::forward(const Cell &cell, PortState &from)
{
    (void)from;
    auto it = routes_.find(cell.vpi);
    if (it == routes_.end()) {
        REMORA_PANIC("switch " + name_ + ": no route for node " +
                     std::to_string(cell.vpi));
    }
    Link *out = ports_[it->second]->output;
    forwarded_.inc();
    obs::instant(0, name_, "net", "hop", obs::kv("dst", cell.vpi),
                 obs::kv("src", cell.vci));
    sim_.schedule(fabricLatency_, [out, cell] { out->send(cell); });
}

} // namespace remora::net
