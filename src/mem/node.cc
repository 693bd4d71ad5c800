#include "mem/node.h"

namespace remora::mem {

Node::Node(sim::Simulator &simulator, net::NodeId id, std::string name,
           const NodeParams &params)
    : sim_(simulator), id_(id), name_(std::move(name)),
      mem_(params.memFrames), cpu_(simulator, name_ + ".cpu"),
      nic_(simulator, name_ + ".nic")
{}

Process &
Node::spawnProcess(const std::string &name)
{
    processes_.push_back(
        std::make_unique<Process>(nextPid_++, name, mem_));
    return *processes_.back();
}

Process *
Node::findProcess(Pid pid)
{
    for (auto &p : processes_) {
        if (p->pid() == pid) {
            return p.get();
        }
    }
    return nullptr;
}

void
Node::registerStats(obs::MetricRegistry &reg, const std::string &prefix) const
{
    const sim::CpuResource &cpu = cpu_;
    reg.addGauge(prefix + ".cpu.busy_total_us",
                 [&cpu] { return sim::toUsec(cpu.totalBusy()); });
    for (int i = 0; i < static_cast<int>(sim::CpuCategory::kNumCategories);
         ++i) {
        auto cat = static_cast<sim::CpuCategory>(i);
        reg.addGauge(prefix + ".cpu.busy_us." + sim::cpuCategoryName(cat),
                     [&cpu, cat] { return sim::toUsec(cpu.busyIn(cat)); });
    }
    nic_.registerStats(reg, prefix + ".nic");
}

} // namespace remora::mem
