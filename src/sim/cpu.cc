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
    : sim_(sim), name_(std::move(name))
{}

void
CpuResource::post(Duration cost, CpuCategory cat, Simulator::Callback fn)
{
    REMORA_ASSERT(cost >= 0);
    Time start = std::max(sim_.now(), busyUntil_);
    Time end = start + cost;
    busyUntil_ = end;
    totalBusy_ += cost;
    byCategory_[static_cast<size_t>(cat)] += cost;
    // Always schedule the completion instant, even without a callback:
    // draining the event queue then means draining the CPU too, so
    // simulated time never lags behind committed work.
    if (fn) {
        sim_.scheduleAt(end, std::move(fn));
    } else if (cost > 0) {
        sim_.scheduleAt(end, [] {});
    }
}

Duration
CpuResource::busyIn(CpuCategory cat) const
{
    return byCategory_[static_cast<size_t>(cat)];
}

double
CpuResource::utilizationSince(Time since) const
{
    Time now = sim_.now();
    if (now <= since) {
        return 0.0;
    }
    return static_cast<double>(totalBusy_) / static_cast<double>(now - since);
}

void
CpuResource::resetAccounting()
{
    totalBusy_ = 0;
    std::fill(std::begin(byCategory_), std::end(byCategory_), Duration{0});
}

} // namespace remora::sim
