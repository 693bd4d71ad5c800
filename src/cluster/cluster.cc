#include "cluster/cluster.h"

#include "util/panic.h"

namespace remora::cluster {

Cluster::Cluster(const ClusterSpec &spec)
    : ownedSim_(std::make_unique<sim::Simulator>()), sim(*ownedSim_),
      network(sim, net::LinkParams{})
{
    build(spec);
}

Cluster::Cluster(sim::Simulator &simulator, const ClusterSpec &spec)
    : sim(simulator), network(sim, net::LinkParams{})
{
    build(spec);
}

void
Cluster::build(const ClusterSpec &spec)
{
    for (size_t i = 0; i < spec.names.size(); ++i) {
        auto id = static_cast<net::NodeId>(i + 1);
        nodes.push_back(std::make_unique<mem::Node>(sim, id, spec.names[i]));
        engines.push_back(
            std::make_unique<rmem::RmemEngine>(*nodes.back(), spec.costs));
        network.addHost(id, nodes.back()->nic());
    }
    if (spec.switched) {
        network.wireSwitched(spec.fabricLatency);
    } else {
        network.wireDirect();
    }
}

rmem::ImportedSegment
Cluster::exportOn(size_t node, const std::string &name, uint32_t size,
                  rmem::NotifyPolicy policy)
{
    REMORA_ASSERT(node < nodes.size());
    mem::Process &p = nodes[node]->spawnProcess(name);
    mem::Vaddr base = p.space().allocRegion(size);
    auto h = engines[node]->exportSegment(p, base, size, rmem::Rights::kAll,
                                          policy, name);
    REMORA_ASSERT(h.ok());
    return h.value();
}

void
Cluster::enableReliability()
{
    for (auto &engine : engines) {
        engine->wire().enableReliability();
    }
}

} // namespace remora::cluster
