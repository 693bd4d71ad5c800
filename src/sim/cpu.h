/**
 * @file
 * A serializing CPU resource with per-category busy-time accounting.
 *
 * Every simulated node has exactly one CPU. All work a node performs —
 * trap handling, protection checks, programmed I/O to the network FIFOs,
 * data copies, context switches, server procedure bodies — is charged to
 * its CpuResource, which serializes requests in arrival order (a simple
 * FCFS processor model). The paper's "server load" metric (Figure 3) is
 * exactly this accounting, split by category.
 */
#pragma once

#include <coroutine>
#include <cstdint>
#include <string>

#include "sim/simulator.h"
#include "sim/task.h"
#include "sim/time.h"

namespace remora::sim {

/**
 * Accounting categories for CPU time, matching the paper's Figure 3
 * breakdown of server activity plus a general bucket.
 */
enum class CpuCategory : uint8_t
{
    /** Receiving data from the network (PIO drain, validation, copies). */
    kDataReceive = 0,
    /** Control transfer: notification dispatch, context switches. */
    kControlTransfer,
    /** Procedure invocation overhead (dispatch, stubs). */
    kProcInvoke,
    /** Sending data to the network (format, PIO fill). */
    kDataReply,
    /** Executing application/service procedure bodies. */
    kProcExec,
    /** Everything else (kernel bookkeeping, timers). */
    kOther,
    kNumCategories,
};

/** Human-readable name of a CPU accounting category. */
const char *cpuCategoryName(CpuCategory cat);

/** FCFS processor model with busy-time accounting. */
class CpuResource
{
  public:
    /**
     * @param sim Owning simulator.
     * @param name Diagnostic name (e.g. "server.cpu").
     */
    CpuResource(Simulator &sim, std::string name);

    /**
     * Consume @p cost of CPU time, then invoke @p fn.
     *
     * The work starts when all previously posted work has finished (or
     * immediately if the CPU is idle) and runs non-preemptively.
     *
     * @param cost CPU time consumed; must be >= 0.
     * @param cat Accounting bucket the time is charged to.
     * @param fn Invoked at completion time, built in its event's slot.
     */
    template <EventFn F>
    void
    post(Duration cost, CpuCategory cat, F &&fn)
    {
        sim_.scheduleAt(lane_, charge(cost, cat), std::forward<F>(fn));
    }

    /** post() with nothing to invoke at completion. */
    void post(Duration cost, CpuCategory cat);

    /** Awaiter of use(); see there. */
    struct [[nodiscard]] Use
    {
        CpuResource &cpu;
        Duration cost;
        CpuCategory cat;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            // The completion resumes the coroutine as a zero-delay event
            // would, as every wakeup is ordered through the queue; in
            // place when that event would run next anyway.
            cpu.post(cost, cat, [sim = &cpu.sim_, h] {
                sim->runNext([h] { h.resume(); });
            });
        }

        void await_resume() const noexcept {}
    };

    /**
     * Coroutine flavour of post(): `co_await cpu.use(cost, cat)` resumes
     * once the CPU time has been consumed. Await it at once: the cost is
     * posted when the coroutine suspends. Allocation-free: no coroutine
     * frame and no Promise, and no wait-graph park, since the wait's
     * completion is always queued.
     */
    Use use(Duration cost, CpuCategory cat) { return Use{*this, cost, cat}; }

    /** Simulated instant at which currently queued work completes. */
    Time busyUntil() const { return busyUntil_; }

    /** Total CPU time consumed since construction / last reset. */
    Duration totalBusy() const { return totalBusy_; }

    /** CPU time consumed in @p cat since construction / last reset. */
    Duration busyIn(CpuCategory cat) const;

    /**
     * CPU time consumed up to @p edge (>= now): everything posted so far
     * less what is still queued past the edge. FCFS keeps the CPU busy
     * without a gap from now until busyUntil, so that is exactly the
     * overhang.
     */
    Duration busyAt(Time edge) const;

    /** Clear the accounting counters (busyUntil is unaffected). */
    void resetAccounting();

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

    /** Owning simulator. */
    Simulator &simulator() { return sim_; }

  private:
    /** Account @p cost in @p cat and return when the work completes. */
    Time charge(Duration cost, CpuCategory cat);

    Simulator &sim_;
    /** FCFS keeps completion times non-decreasing: one lane holds them. */
    Simulator::LaneId lane_;
    std::string name_;
    Time busyUntil_ = 0;
    Duration totalBusy_ = 0;
    Duration byCategory_[static_cast<size_t>(CpuCategory::kNumCategories)] = {};
};

} // namespace remora::sim
