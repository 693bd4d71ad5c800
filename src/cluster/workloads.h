/**
 * @file
 * The explorer-workload registry.
 *
 * Each workload is a deterministic thunk that builds a small cluster on
 * the simulator it is handed and drives it to quiescence; the
 * ScheduleExplorer re-executes it once per same-instant tie-break
 * schedule and checks every terminal state for deadlocks, lost wakeups
 * and blocked-forever coroutines.
 *
 * Clean workloads (rpc, notify, vector-notify, sync, dfs-token,
 * lossy-write, lossy-rpc) must explore to zero findings: they are the
 * `remora explore` ctest gate. Seeded workloads (deadlock, lost-wakeup)
 * carry planted bugs the explorer must find and shrink.
 */
#pragma once

#include <string_view>
#include <vector>

#include "sim/explorer.h"

namespace remora::cluster {

/** One registered workload. */
struct Workload
{
    const char *name;
    sim::ScheduleExplorer::Workload fn;
    /** Carries a planted bug; findings are the point. */
    bool seeded;
};

/** Every workload: the clean ones first, then the seeded ones. */
const std::vector<Workload> &workloads();

/** The workload called @p name, or nullptr. */
const Workload *findWorkload(std::string_view name);

} // namespace remora::cluster
