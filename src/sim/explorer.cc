#include "sim/explorer.h"

#include <algorithm>
#include <utility>

#include "util/panic.h"

namespace remora::sim {

/**
 * The DFS driver policy: at depths covered by the stack it follows the
 * node's current choice; at the frontier it materialises a new node,
 * seeds it with the inherited sleep set, and picks the first
 * non-sleeping alternative. Inheritance filters the sleep set by
 * independence with the transition taken, per the sleep-set algorithm.
 */
class ScheduleExplorer::Policy final : public SchedulePolicy
{
  public:
    Policy(ScheduleExplorer &ex) : ex_(ex) {}

    size_t
    choose(Simulator &, const std::vector<ReadyChoice> &ready) override
    {
        auto &stack = ex_.stack_;
        if (depth_ == stack.size()) {
            Node n;
            n.altIds.reserve(ready.size());
            for (const ReadyChoice &c : ready) {
                n.altIds.push_back(c.id);
            }
            n.sleep = inheritSleep_;
            size_t pick = ready.size();
            for (size_t i = 0; i < ready.size(); ++i) {
                if (n.sleep.count(ready[i].id) == 0) {
                    pick = i;
                    break;
                }
            }
            if (pick == ready.size()) {
                // Every alternative is asleep: this state is redundant
                // (reachable by commuting an explored schedule). We
                // cannot unwind a half-run simulator, so run on.
                pick = 0;
            }
            n.chosen = pick;
            n.explored = 1;
            stack.push_back(std::move(n));
        } else {
            Node &n = stack[depth_];
            bool match = n.altIds.size() == ready.size();
            for (size_t i = 0; match && i < ready.size(); ++i) {
                match = n.altIds[i] == ready[i].id;
            }
            if (!match) {
                REMORA_FATAL("ScheduleExplorer: ready set diverged on "
                             "replay — the workload is not deterministic");
            }
        }
        Node &n = stack[depth_];
        size_t idx = n.chosen;
        if (ex_.opts_.reduction) {
            // Child inherits the sleeping transitions that commute with
            // the one taken; dependent ones wake up (their order
            // relative to idx matters, so they must be re-explored).
            std::set<uint64_t> child;
            const DepHint &taken = ready[idx].hint;
            for (uint64_t z : n.sleep) {
                for (const ReadyChoice &c : ready) {
                    if (c.id == z) {
                        if (!DepHint::dependent(c.hint, taken)) {
                            child.insert(z);
                        }
                        break;
                    }
                }
            }
            inheritSleep_ = std::move(child);
        } else {
            inheritSleep_.clear();
        }
        choices_.push_back(static_cast<uint32_t>(idx));
        ++depth_;
        return idx;
    }

    const std::vector<uint32_t> &choices() const { return choices_; }

    size_t depth() const { return depth_; }

  private:
    ScheduleExplorer &ex_;
    size_t depth_ = 0;
    std::vector<uint32_t> choices_;
    std::set<uint64_t> inheritSleep_;
};

ScheduleExplorer::ScheduleExplorer(Workload workload, ExplorerOptions opts)
    : workload_(std::move(workload)), opts_(opts)
{
    REMORA_ASSERT(workload_ != nullptr);
    REMORA_ASSERT(opts_.maxSchedules >= 1);
}

void
ScheduleExplorer::collectReports(Simulator &sim, RunOutcome &out)
{
    out.digest = sim.scheduleDigest().value();
    out.steps = sim.eventsProcessed();
    out.quiescent = sim.livePendingEvents() == 0;
    for (const HangReport &d : sim.waitGraph().deadlocks()) {
        out.reports.push_back(d);
    }
    if (sim.deadlockHalted()) {
        return; // mid-flight state; quiescence checks don't apply
    }
    if (!out.quiescent) {
        HangReport rep;
        rep.kind = HangReport::Kind::kNonQuiescent;
        rep.at = sim.now();
        rep.detail = sim.budgetExhausted()
                         ? "step budget exhausted before quiescence"
                         : "workload returned with events still pending";
        out.reports.push_back(std::move(rep));
        return;
    }
    for (HangReport &rep : sim.waitGraph().quiescenceReports(sim.now())) {
        out.reports.push_back(std::move(rep));
    }
}

ScheduleExplorer::RunOutcome
ScheduleExplorer::executeStack()
{
    Simulator sim;
    Policy pol(*this);
    sim.setPolicy(&pol);
    sim.setStepBudget(opts_.stepBudget);
    workload_(sim);
    RunOutcome out;
    out.choices = pol.choices();
    decisions_.inc(pol.depth());
    collectReports(sim, out);
    return out;
}

ScheduleExplorer::RunOutcome
ScheduleExplorer::runOnce(const std::vector<uint32_t> &prefix)
{
    Simulator sim;
    RecordReplayPolicy pol(prefix);
    sim.setPolicy(&pol);
    sim.setStepBudget(opts_.stepBudget);
    workload_(sim);
    RunOutcome out;
    out.choices = pol.recorded();
    collectReports(sim, out);
    return out;
}

bool
ScheduleExplorer::advance()
{
    while (!stack_.empty()) {
        Node &n = stack_.back();
        n.sleep.insert(n.altIds[n.chosen]);
        size_t next = n.altIds.size();
        for (size_t i = 0; i < n.altIds.size(); ++i) {
            if (n.sleep.count(n.altIds[i]) == 0) {
                next = i;
                break;
            }
        }
        if (next < n.altIds.size()) {
            n.chosen = next;
            ++n.explored;
            return true;
        }
        // Node exhausted: everything still unexplored was pruned.
        sleepSkips_.inc(n.altIds.size() - n.explored);
        stack_.pop_back();
    }
    return false;
}

/** Extra replays allowed per finding while shrinking. */
constexpr uint64_t kMaxShrinkRuns = 128;

std::vector<uint32_t>
ScheduleExplorer::shrinkPrefix(const std::vector<uint32_t> &full,
                               const std::string &sig)
{
    uint64_t budget = kMaxShrinkRuns;
    for (size_t k = 0; k <= full.size(); ++k) {
        if (budget == 0) {
            break;
        }
        --budget;
        shrinkRuns_.inc();
        std::vector<uint32_t> prefix(full.begin(), full.begin() + k);
        RunOutcome out = runOnce(prefix);
        for (const HangReport &rep : out.reports) {
            if (rep.signature() == sig) {
                return prefix;
            }
        }
    }
    return full;
}

/** Stop recording findings past this many (dedup continues). */
constexpr size_t kMaxFindings = 8;

ExploreResult
ScheduleExplorer::explore()
{
    ExploreResult res;
    std::set<std::string> seen;
    stack_.clear();
    for (;;) {
        if (res.schedules >= opts_.maxSchedules) {
            res.capped = true;
            break;
        }
        RunOutcome out = executeStack();
        ++res.schedules;
        schedules_.inc();
        res.maxDepth = std::max(res.maxDepth,
                                static_cast<uint64_t>(stack_.size()));
        if (res.schedules == 1) {
            res.firstDigest = out.digest;
        }
        for (const HangReport &rep : out.reports) {
            std::string sig = rep.signature();
            if (!seen.insert(sig).second) {
                continue;
            }
            findings_.inc();
            if (res.findings.size() >= kMaxFindings) {
                continue;
            }
            ExplorerFinding f;
            f.report = rep;
            f.schedule = res.schedules - 1;
            f.choices = out.choices;
            f.digest = out.digest;
            f.shrunk = opts_.shrink ? shrinkPrefix(out.choices, sig)
                                    : out.choices;
            res.findings.push_back(std::move(f));
        }
        if (!advance()) {
            res.exhausted = true;
            break;
        }
    }
    res.decisions = decisions_.value();
    res.sleepSkips = sleepSkips_.value();
    return res;
}

} // namespace remora::sim
