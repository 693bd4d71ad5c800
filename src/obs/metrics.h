/**
 * @file
 * The unified metric registry: every counter in the cluster, one dump.
 *
 * Components own their sim::Counter / Accumulator / Histogram objects
 * exactly as before; MetricRegistry holds *references* under
 * hierarchical dotted names ("node3.rmem.writes_issued") so a whole
 * cluster's state renders as one sorted text dump or one nested JSON
 * document. The layers a run wires in provide a registerStats(registry,
 * prefix) method that registers everything they own: mem::Node (with its
 * NIC), rmem::RmemEngine (with its Wire and AAL5 reassembler),
 * dfs::ServerClerk and dfs::FileServer, one call per layer, and the
 * armed RaceDetector under "race". Links, switches, fault injectors
 * and the RPC transport keep counters that accessors read, but
 * register none.
 *
 * Gauges cover values that are not stored in a stats object (queue
 * depths, CPU busy time): they are sampled through a callback at dump
 * time.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "sim/stats.h"

namespace remora::obs {

/** Hierarchical, type-aware registry of borrowed stats objects. */
class MetricRegistry
{
  public:
    /** Sampled-at-dump-time numeric metric. */
    using Gauge = std::function<double()>;

    /** Register a counter; it must outlive the registry's use. */
    void add(const std::string &name, const sim::Counter &c);

    /** Register an accumulator. */
    void add(const std::string &name, const sim::Accumulator &a);

    /** Register a histogram. */
    void add(const std::string &name, const sim::Histogram &h);

    /** Register a gauge callback. */
    void addGauge(const std::string &name, Gauge g);

    /** Drop every metric whose name starts with @p prefix. */
    void removePrefix(const std::string &prefix);

    /** Number of registered metrics. */
    size_t size() const { return entries_.size(); }

    /** "name value" lines, sorted by name. */
    std::string dump() const;

    /**
     * One JSON document: dotted names become nested objects, so
     * "node1.rmem.writes_issued" lands at json["node1"]["rmem"]
     * ["writes_issued"].
     */
    std::string dumpJson() const;

    /** The process-wide default registry. */
    static MetricRegistry &global();

  private:
    struct Entry
    {
        enum class Kind : uint8_t
        {
            kCounter,
            kAccumulator,
            kHistogram,
            kGauge,
        };
        Kind kind;
        const void *object = nullptr;
        Gauge gauge;
    };

    std::map<std::string, Entry> entries_;
};

} // namespace remora::obs
