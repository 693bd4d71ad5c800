/**
 * @file
 * The repository benchmark: shared types of the workload trials, the
 * runner in main.cc and the host-time probes in probes.cc.
 *
 * A *trial* builds a fresh cluster, warms it, simulates one measured
 * window of simulated time, drains in-flight ops and checks every
 * result. Simulated-clock results of a trial are a pure function of
 * the workload and the seed, so repeated trials must agree exactly;
 * host-clock results are medians over the trials of a run.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/node.h"
#include "net/network.h"
#include "rmem/engine.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/hash.h"
#include "util/panic.h"

namespace remora::perfbench {

/** Seconds on the host's monotonic clock. */
double hostSeconds();

/** Drive @p sim until @p task finishes (optionally calling @p onStep). */
template <typename T>
T
runTask(sim::Simulator &sim, sim::Task<T> &task,
        const std::function<void()> &onStep = {})
{
    while (!task.done() && sim.step()) {
        if (onStep) {
            onStep();
        }
    }
    if (!task.done()) {
        REMORA_PANIC("perfbench task stalled: event queue drained");
    }
    return task.result();
}

/** Gauges read at fixed simulated intervals during the traced window. */
struct Gauges
{
    double pending = 0;
    double live = 0;
    double serverRxDepth = 0;
    double linkQueue = 0;
};

/**
 * Samples gauges whenever simulated time reaches the next multiple of
 * the interval. It only reads state, so sampling never schedules an
 * event and cannot change the simulation.
 */
class Sampler
{
  public:
    Sampler(sim::Time start, sim::Duration interval,
            std::function<Gauges()> read)
        : interval_(interval), read_(std::move(read)), next_(start)
    {}

    /** Next instant a sample is due. */
    sim::Time due() const { return next_; }

    /** Sample if @p now reached the due instant. */
    void
    maybeSample(sim::Time now)
    {
        if (now < next_) {
            return;
        }
        Gauges g = read_();
        ++samples_;
        pendingSum_ += g.pending;
        tombFracSum_ += g.pending > 0 ? (g.pending - g.live) / g.pending : 0.0;
        rxDepthSum_ += g.serverRxDepth;
        linkQueueMax_ = std::max(linkQueueMax_, g.linkQueue);
        while (next_ <= now) {
            next_ += interval_;
        }
    }

    double pendingMean() const { return samples_ ? pendingSum_ / samples_ : 0; }
    double tombstoneFrac() const { return samples_ ? tombFracSum_ / samples_ : 0; }
    double rxDepthMean() const { return samples_ ? rxDepthSum_ / samples_ : 0; }
    double linkQueueMax() const { return linkQueueMax_; }

  private:
    sim::Duration interval_;
    std::function<Gauges()> read_;
    sim::Time next_;
    double samples_ = 0;
    double pendingSum_ = 0;
    double tombFracSum_ = 0;
    double rxDepthSum_ = 0;
    double linkQueueMax_ = 0;
};

/** Number of CPU accounting categories. */
inline constexpr size_t kCpuCats =
    static_cast<size_t>(sim::CpuCategory::kNumCategories);

/**
 * Every layer counter the metrics use, read at one window edge. Window
 * figures are differences of two snapshots. Fields a workload's layers
 * do not have stay zero.
 */
struct Counters
{
    /** The edge instant the snapshot stands for. */
    sim::Time at = 0;
    uint64_t events = 0;
    uint64_t decisions = 0;
    /** Cells pushed by every host interface. */
    uint64_t cells = 0;
    /** Cells carried by the server's outgoing and incoming links. */
    uint64_t serverTxCells = 0;
    uint64_t serverRxCells = 0;
    /** Wire layer, summed over every node. */
    uint64_t msgs = 0;
    uint64_t msgBytes = 0;
    uint64_t retransmits = 0;
    uint64_t acks = 0;
    uint64_t fragments = 0;
    uint64_t sendFailures = 0;
    /** Engine layer, summed over every node. */
    uint64_t notifications = 0;
    uint64_t timeouts = 0;
    uint64_t vectors = 0;
    uint64_t vectorSubOps = 0;
    /** Hybrid-1 calls the file server executed. */
    uint64_t hyCalls = 0;
    uint64_t faultDrops = 0;
    /** DFS backends. */
    uint64_t dxAttempts = 0;
    uint64_t dxMisses = 0;
    uint64_t windowShrinks = 0;
    /** Server CPU: busy time committed up to the edge. */
    sim::Duration serverBusy = 0;
    std::array<sim::Duration, kCpuCats> serverCat{};
    /** Client CPUs, summed. */
    sim::Duration clientBusy = 0;
    size_t clients = 0;
};

/** The parts of a cluster the shared counters and gauges read. */
struct ClusterView
{
    sim::Simulator *sim = nullptr;
    const net::Network *network = nullptr;
    mem::Node *server = nullptr;
    std::vector<mem::Node *> clients;
    /** Every node's engine, server included. */
    std::vector<rmem::RmemEngine *> engines;
};

/**
 * Sim core, link, NIC, wire, engine, fault and CPU counters at window
 * edge @p edge (the workload-specific fields stay zero).
 */
Counters clusterCounters(const ClusterView &v, sim::Time edge);

/** Heap depth, server RX FIFO depth and the deepest link queue now. */
Gauges clusterGauges(const ClusterView &v);

/** One completed op as the workload saw it. */
struct OpRecord
{
    uint32_t client = 0;
    uint64_t index = 0;
    uint32_t kind = 0;
    int status = 0;
    sim::Time start = 0;
    sim::Time end = 0;
    uint64_t payloadHash = 0;
};

/** Outcome log of a trial: latencies, failures, checks and the digest. */
class OpLog
{
  public:
    /** Record a completed op (in completion order). */
    void
    complete(const OpRecord &r)
    {
        ++attempted_;
        if (r.status != 0 && failed_++ == 0) {
            firstFailedOp_ = r;
        }
        ends_.push_back(r.end);
        latencies_.push_back(r.end - r.start);
        kinds_.push_back(r.kind);
        for (uint64_t v : {uint64_t(r.client), r.index, uint64_t(r.kind),
                           uint64_t(static_cast<uint32_t>(r.status)),
                           uint64_t(r.end), r.payloadHash}) {
            digest_ = util::mix64(digest_ ^ v);
        }
    }

    /** Record a failed output check. */
    void
    checkFailed(const std::string &what)
    {
        if (checkFailures_++ == 0) {
            firstFailure_ = what;
        }
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    uint64_t checkFailures() const { return checkFailures_; }
    const std::string &firstFailure() const { return firstFailure_; }
    uint64_t digest() const { return digest_; }
    /** The first op that returned a non-ok status (if failed() > 0). */
    const OpRecord &firstFailedOp() const { return firstFailedOp_; }

    /** Latencies of the ops that completed in [from, to), ns. */
    std::vector<sim::Duration>
    windowLatencies(sim::Time from, sim::Time to, int kind = -1) const
    {
        std::vector<sim::Duration> out;
        for (size_t i = 0; i < ends_.size(); ++i) {
            if (ends_[i] >= from && ends_[i] < to &&
                (kind < 0 || kinds_[i] == static_cast<uint32_t>(kind))) {
                out.push_back(latencies_[i]);
            }
        }
        return out;
    }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t checkFailures_ = 0;
    std::string firstFailure_;
    OpRecord firstFailedOp_;
    uint64_t digest_ = 0x9e3779b97f4a7c15ull;
    std::vector<sim::Time> ends_;
    std::vector<sim::Duration> latencies_;
    std::vector<uint32_t> kinds_;
};

/**
 * One workload instance. main.cc calls build(), runTo(warmup end),
 * runTo(window end), drain() and finish(), snapshotting at each edge.
 */
class Trial
{
  public:
    Trial() = default;
    Trial(const Trial &) = delete;
    Trial &operator=(const Trial &) = delete;
    virtual ~Trial() = default;

    /** Build, wire and warm the cluster and start its clients. */
    virtual void build() = 0;

    /**
     * Simulate every event before @p t (ops that start before the
     * window end keep issuing). @p sampler, when given, sees the
     * gauges at its fixed simulated interval.
     */
    virtual void runTo(sim::Time t, Sampler *sampler) = 0;

    /** Let the ops in flight at the window end complete. */
    virtual void drain() = 0;

    /** End-of-run checks (blocked coroutines, unfinished clients). */
    virtual void finish() = 0;

    /** Every layer counter at window edge @p edge. */
    Counters
    snapshot(sim::Time edge)
    {
        Counters c = clusterCounters(view(), edge);
        addWorkloadCounters(c);
        return c;
    }

    /** Gauges for the traced run's sampler. */
    Gauges gauges() { return clusterGauges(view()); }

    /** The cluster's nodes, engines and network. */
    virtual ClusterView view() = 0;

    /** Fill the counters only this workload's layers have. */
    virtual void addWorkloadCounters(Counters &) {}

    /** Published-value error, percent (rmem_small only; else < 0). */
    virtual double paperErrPct(sim::Time, sim::Time) const { return -1; }

    /** Ops completed and checked. */
    OpLog log;
};

/** Simulated-time layout of a workload's trial. */
struct Schedule
{
    sim::Time warmupEnd = 0;
    sim::Time stopAt = 0;
};

/** A named workload: its schedules and a trial factory. */
struct WorkloadSpec
{
    std::string name;
    /** The measured window of the end-to-end run. */
    Schedule schedule;
    /**
     * The shorter window of the per-layer run, whose traced trial must
     * keep every event in memory; its untraced trials use it too, so
     * the two compare exactly.
     */
    Schedule tracedSchedule;
    /** True when ops run through WorkloadGen (trace layer in use). */
    bool usesWorkloadGen = false;
    /** True when faults are injected (lossy checks apply). */
    bool lossy = false;
    std::function<std::unique_ptr<Trial>(uint64_t seed, bool corruptRead,
                                         Schedule schedule)>
        make;
};

/** The rmem_small workload (rmem_small.cc). */
WorkloadSpec rmemSmallWorkload();

/** dfs_dx, dfs_hy and dfs_dx_lossy (dfs.cc). */
WorkloadSpec dfsWorkload(const std::string &name);

/** Host-time probes of single layers (probes.cc), ns per unit. */
namespace probes {

/** Simulator::scheduleAt + step of null callbacks at a heap depth. */
double simCoreNsPerEvent(double pendingMean, double tombstoneFrac);

/** util::crc32Ieee over buffers of @p bytes. */
double crcNsPerByte(size_t bytes);

/** net::aal5Segment + Aal5Reassembler::feed of @p frameBytes frames. */
double aal5NsPerCell(size_t frameBytes);

/** rmem::encodeMessage + decodeMessage of @p msgBytes-sized messages. */
double codecNsPerMsg(size_t msgBytes);

/** rpc::Marshal + Unmarshal of a call carrying @p bodyBytes. */
double marshalNsPerCall(size_t bodyBytes);

/** trace::WorkloadGen::next. */
double genNsPerOp(uint64_t seed);

} // namespace probes

} // namespace remora::perfbench
