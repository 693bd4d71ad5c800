/**
 * @file
 * Critical-path latency attribution over a trace recording.
 *
 * The paper's Table 2 decomposes each meta-instruction's latency into
 * software, wire, and controller microseconds. This analyzer derives
 * that decomposition from a recording, by walking the cross-node event
 * DAG the op-id propagation stitches together, and adds the phase a
 * static cost model cannot see: **queueing**, the time an op spends
 * ready but not running (CPU busy with other work, drain loop not yet
 * at our message, notification not yet dispatched).
 *
 * The walk is a cursor sweep over the op's window [asyncBegin ts,
 * asyncEnd ts]:
 *
 *  - time covered by an op-stamped span is software on that span's
 *    node (overlapping spans count once — the union is what ran);
 *  - an uncovered gap containing a cell-arrival anchor (see
 *    obs::kCellArrivalEvent) is wire up to the arrival, controller for
 *    the interrupt latency after it, and queueing for the remainder;
 *  - an uncovered gap with no arrival is queueing, attributed to the
 *    node that runs next.
 *
 * The four phases tile the window, so they sum to the op's latency.
 * bench_table2_rmem_ops checks that exactly for READ and CAS, whose ops
 * end where its latency loops stop the clock: the mean phase total
 * must equal the measured latency to half a nanosecond
 * (`read.critpath.sums_to_latency`, `cas.critpath.sums_to_latency`).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/time.h"

namespace remora::obs {

/** Where a slice of an op's wall time went. */
enum class PathPhase : uint8_t
{
    /** An op-stamped span was running (kernel emulation, PIO, copies). */
    kSoftware,
    /** Cells in flight: serialization plus propagation. */
    kWire,
    /** NIC interrupt latency after a frame arrival. */
    kController,
    /** Ready but not running: CPU busy, drain backlog, dispatch delay. */
    kQueueing,
};

/** One attributed slice of an op's timeline. */
struct PathSlice
{
    PathPhase phase;
    /** Node the slice is attributed to ("wire" slices: the receiver). */
    std::string node;
    /** Slice window, ns. */
    sim::Time begin = 0;
    sim::Time end = 0;

    sim::Duration duration() const { return end - begin; }
};

/** Per-phase totals, ns. */
struct PhaseTotals
{
    sim::Duration software = 0;
    sim::Duration wire = 0;
    sim::Duration controller = 0;
    sim::Duration queueing = 0;

    sim::Duration
    total() const
    {
        return software + wire + controller + queueing;
    }

    void add(PathPhase phase, sim::Duration d);
    PhaseTotals &operator+=(const PhaseTotals &other);
};

/** The analyzed critical path of one async op. */
struct OpCriticalPath
{
    /** The op's async id. */
    uint64_t id = 0;
    /** Parent op id (0 = root). */
    uint64_t parent = 0;
    /** Op name from its asyncBegin ("read", "write", "hy_call", ...). */
    std::string name;
    /** Node that began the op. */
    std::string initiator;
    /** Op window, ns. */
    sim::Time begin = 0;
    sim::Time end = 0;
    /** The attributed timeline, in time order, gap-free over the window. */
    std::vector<PathSlice> slices;
    /** Phase totals across all nodes. */
    PhaseTotals totals;
    /** Phase totals per node (wire time on the receiving node's row). */
    std::map<std::string, PhaseTotals> perNode;

    sim::Duration latency() const { return end - begin; }
};

/** Analyzer knobs. */
struct CriticalPathParams
{
    /**
     * NIC interrupt latency: the controller share of a post-arrival
     * gap. Should match net::kInterruptLatency.
     */
    sim::Duration interruptLatency = sim::usec(2);
};

/** Walks recorded events into per-op critical paths. */
class CriticalPathAnalyzer
{
  public:
    explicit CriticalPathAnalyzer(const CriticalPathParams &params = {})
        : params_(params)
    {}

    /**
     * Analyze every completed async op in @p events (ops missing their
     * asyncEnd are skipped). Returned in begin-time order.
     */
    std::vector<OpCriticalPath> analyze(
        const std::vector<TraceEvent> &events) const;

    /** Aggregated view of many ops with the same name. */
    struct Summary
    {
        size_t count = 0;
        PhaseTotals totals;     /**< Summed across ops. */
        sim::Duration minLatency = 0;
        sim::Duration maxLatency = 0;
    };

    /** Group @p ops by name and sum their phases. */
    static std::map<std::string, Summary> summarize(
        const std::vector<OpCriticalPath> &ops);

    /**
     * Render a Table-2-style breakdown (one row per op name, mean
     * phase microseconds) for terminals.
     */
    static std::string renderText(const std::vector<OpCriticalPath> &ops);

    /** Machine-readable dump of per-op paths and the summary. */
    static std::string toJson(const std::vector<OpCriticalPath> &ops);

  private:
    CriticalPathParams params_;
};

} // namespace remora::obs
