#include "sim/cpu.h"

#include <algorithm>

#include "util/panic.h"

namespace remora::sim {

const char *
cpuCategoryName(CpuCategory cat)
{
    switch (cat) {
      case CpuCategory::kDataReceive: return "data_receive";
      case CpuCategory::kControlTransfer: return "control_transfer";
      case CpuCategory::kProcInvoke: return "proc_invoke";
      case CpuCategory::kDataReply: return "data_reply";
      case CpuCategory::kProcExec: return "proc_exec";
      case CpuCategory::kOther: return "other";
      case CpuCategory::kNumCategories: break;
    }
    return "unknown";
}

CpuResource::CpuResource(Simulator &sim, std::string name)
    : sim_(sim), lane_(sim.openLane()), name_(std::move(name))
{}

Time
CpuResource::charge(Duration cost, CpuCategory cat)
{
    REMORA_ASSERT(cost >= 0);
    busyUntil_ = std::max(sim_.now(), busyUntil_) + cost;
    totalBusy_ += cost;
    byCategory_[static_cast<size_t>(cat)] += cost;
    return busyUntil_;
}

void
CpuResource::post(Duration cost, CpuCategory cat)
{
    Time end = charge(cost, cat);
    if (cost > 0) {
        // The completion instant still counts without a callback, so
        // simulated time never lags behind committed work: run() ends
        // the clock at a reserved key as the event would have. Under a
        // policy, which keeps every event eager, queue an empty one.
        if (sim_.policy() == nullptr) {
            sim_.reserve(end);
        } else {
            sim_.scheduleAt(lane_, end, [] {});
        }
    }
}

Duration
CpuResource::busyIn(CpuCategory cat) const
{
    return byCategory_[static_cast<size_t>(cat)];
}

Duration
CpuResource::busyAt(Time edge) const
{
    REMORA_ASSERT(edge >= sim_.now());
    return totalBusy_ - std::max<Duration>(0, busyUntil_ - edge);
}

void
CpuResource::resetAccounting()
{
    totalBusy_ = 0;
    std::fill(std::begin(byCategory_), std::end(byCategory_), Duration{0});
}

} // namespace remora::sim
