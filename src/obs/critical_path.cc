#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "util/json.h"

namespace remora::obs {

namespace {

/** A span clipped to [begin, end) on one node. */
struct SpanRange
{
    sim::Time begin;
    sim::Time end;
    std::string node;
};

/** A frame-arrival anchor. */
struct Arrival
{
    sim::Time ts;
    std::string node;
};

/** Everything recorded against one async op. */
struct OpEvents
{
    bool begun = false;
    bool ended = false;
    uint64_t parent = 0;
    sim::Time begin = 0;
    sim::Time end = 0;
    std::string name;
    std::string initiator;
    std::vector<SpanRange> spans;
    std::vector<Arrival> arrivals;
};

} // namespace

void
PhaseTotals::add(PathPhase phase, sim::Duration d)
{
    switch (phase) {
      case PathPhase::kSoftware:
        software += d;
        break;
      case PathPhase::kWire:
        wire += d;
        break;
      case PathPhase::kController:
        controller += d;
        break;
      case PathPhase::kQueueing:
        queueing += d;
        break;
    }
}

PhaseTotals &
PhaseTotals::operator+=(const PhaseTotals &other)
{
    software += other.software;
    wire += other.wire;
    controller += other.controller;
    queueing += other.queueing;
    return *this;
}

namespace {

/** Append a slice and book it in the op's totals. */
void
emitSlice(OpCriticalPath &path, PathPhase phase, std::string node,
          sim::Time begin, sim::Time end)
{
    if (end <= begin) {
        return;
    }
    path.totals.add(phase, end - begin);
    path.perNode[node].add(phase, end - begin);
    path.slices.push_back(PathSlice{phase, std::move(node), begin, end});
}

/**
 * Classify the uncovered gap [g0, g1): wire up to each arrival anchor
 * inside it, controller for the interrupt latency after an arrival,
 * queueing for the rest. @p fallbackNode takes the queueing when the
 * gap holds no arrival (the node that runs next, i.e. where the op is
 * waiting for CPU).
 */
void
classifyGap(OpCriticalPath &path, const std::vector<Arrival> &arrivals,
            sim::Time g0, sim::Time g1, sim::Duration interruptLatency,
            const std::string &fallbackNode)
{
    sim::Time pos = g0;
    const std::string *queueNode = &fallbackNode;
    for (const Arrival &a : arrivals) {
        if (a.ts < g0 || a.ts >= g1) {
            continue;
        }
        // In flight until the frame lands (a later anchor in the same
        // gap means the wire was still busy delivering for this op).
        emitSlice(path, PathPhase::kWire, a.node, pos, a.ts);
        sim::Time ctrlEnd = std::min(a.ts + interruptLatency, g1);
        emitSlice(path, PathPhase::kController, a.node, a.ts, ctrlEnd);
        pos = std::max(pos, ctrlEnd);
        queueNode = &a.node;
    }
    emitSlice(path, PathPhase::kQueueing, *queueNode, pos, g1);
}

} // namespace

std::vector<OpCriticalPath>
CriticalPathAnalyzer::analyze(const std::vector<TraceEvent> &events) const
{
    std::unordered_map<uint64_t, OpEvents> ops;
    for (const TraceEvent &ev : events) {
        switch (ev.phase) {
          case TracePhase::kAsyncBegin: {
            OpEvents &op = ops[ev.id];
            if (!op.begun) {
                op.begun = true;
                op.begin = ev.ts;
                op.name = ev.name;
                op.initiator = ev.node;
                op.parent = ev.parent;
            }
            break;
          }
          case TracePhase::kAsyncEnd: {
            OpEvents &op = ops[ev.id];
            if (!op.ended) {
                op.ended = true;
                op.end = ev.ts;
            }
            break;
          }
          case TracePhase::kSpan:
            if (ev.op != 0 && ev.dur >= 0) {
                ops[ev.op].spans.push_back(
                    SpanRange{ev.ts, ev.ts + ev.dur, ev.node});
            }
            break;
          case TracePhase::kInstant:
            if (ev.op != 0 && ev.name == kCellArrivalEvent) {
                ops[ev.op].arrivals.push_back(Arrival{ev.ts, ev.node});
            }
            break;
        }
    }

    std::vector<OpCriticalPath> out;
    for (auto &[id, op] : ops) {
        if (!op.begun || !op.ended || op.end < op.begin) {
            continue; // incomplete op (still open at export, or orphan)
        }
        OpCriticalPath path;
        path.id = id;
        path.parent = op.parent;
        path.name = op.name;
        path.initiator = op.initiator;
        path.begin = op.begin;
        path.end = op.end;

        std::sort(op.spans.begin(), op.spans.end(),
                  [](const SpanRange &a, const SpanRange &b) {
                      return a.begin != b.begin ? a.begin < b.begin
                                                : a.end < b.end;
                  });
        std::sort(op.arrivals.begin(), op.arrivals.end(),
                  [](const Arrival &a, const Arrival &b) {
                      return a.ts < b.ts;
                  });

        // Cursor sweep: union of spans is software; uncovered gaps are
        // split into wire / controller / queueing around the arrival
        // anchors.
        sim::Time cursor = op.begin;
        for (const SpanRange &s : op.spans) {
            if (s.end <= cursor || s.begin >= op.end) {
                continue; // fully covered already, or outside the window
            }
            sim::Time start = std::max(s.begin, op.begin);
            if (start > cursor) {
                classifyGap(path, op.arrivals, cursor, start,
                            params_.interruptLatency, s.node);
            }
            sim::Time swBegin = std::max(cursor, start);
            sim::Time swEnd = std::min(s.end, op.end);
            emitSlice(path, PathPhase::kSoftware, s.node, swBegin, swEnd);
            cursor = std::max(cursor, swEnd);
            if (cursor >= op.end) {
                break;
            }
        }
        if (cursor < op.end) {
            classifyGap(path, op.arrivals, cursor, op.end,
                        params_.interruptLatency, op.initiator);
        }
        out.push_back(std::move(path));
    }
    std::sort(out.begin(), out.end(),
              [](const OpCriticalPath &a, const OpCriticalPath &b) {
                  return a.begin != b.begin ? a.begin < b.begin
                                            : a.id < b.id;
              });
    return out;
}

std::map<std::string, CriticalPathAnalyzer::Summary>
CriticalPathAnalyzer::summarize(const std::vector<OpCriticalPath> &ops)
{
    std::map<std::string, Summary> out;
    for (const OpCriticalPath &op : ops) {
        Summary &s = out[op.name];
        if (s.count == 0 || op.latency() < s.minLatency) {
            s.minLatency = op.latency();
        }
        if (s.count == 0 || op.latency() > s.maxLatency) {
            s.maxLatency = op.latency();
        }
        ++s.count;
        s.totals += op.totals;
    }
    return out;
}

std::string
CriticalPathAnalyzer::renderText(const std::vector<OpCriticalPath> &ops)
{
    auto summary = summarize(ops);
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-12s %6s %10s %10s %10s %10s %10s\n", "op", "n",
                  "total_us", "software", "wire", "controller", "queueing");
    out += line;
    for (const auto &[name, s] : summary) {
        double n = static_cast<double>(s.count);
        std::snprintf(line, sizeof(line),
                      "%-12s %6zu %10.2f %10.2f %10.2f %10.2f %10.2f\n",
                      name.c_str(), s.count,
                      sim::toUsec(s.totals.total()) / n,
                      sim::toUsec(s.totals.software) / n,
                      sim::toUsec(s.totals.wire) / n,
                      sim::toUsec(s.totals.controller) / n,
                      sim::toUsec(s.totals.queueing) / n);
        out += line;
    }
    return out;
}

std::string
CriticalPathAnalyzer::toJson(const std::vector<OpCriticalPath> &ops)
{
    util::JsonWriter w;
    auto phases = [&w](const PhaseTotals &t) {
        w.beginObject()
            .kv("software_us", sim::toUsec(t.software))
            .kv("wire_us", sim::toUsec(t.wire))
            .kv("controller_us", sim::toUsec(t.controller))
            .kv("queueing_us", sim::toUsec(t.queueing))
            .kv("total_us", sim::toUsec(t.total()))
            .endObject();
    };
    w.beginObject();
    w.key("ops").beginArray();
    for (const OpCriticalPath &op : ops) {
        w.beginObject()
            .kv("id", op.id)
            .kv("parent", op.parent)
            .kv("name", op.name)
            .kv("initiator", op.initiator)
            .kv("begin_us", sim::toUsec(op.begin))
            .kv("latency_us", sim::toUsec(op.latency()));
        w.key("phases");
        phases(op.totals);
        w.key("per_node").beginObject();
        for (const auto &[node, t] : op.perNode) {
            w.key(node);
            phases(t);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("summary").beginObject();
    for (const auto &[name, s] : summarize(ops)) {
        w.key(name).beginObject().kv("count", static_cast<uint64_t>(s.count));
        w.key("phases");
        phases(s.totals);
        w.kv("min_latency_us", sim::toUsec(s.minLatency))
            .kv("max_latency_us", sim::toUsec(s.maxLatency))
            .endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace remora::obs
