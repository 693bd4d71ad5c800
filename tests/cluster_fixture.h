/**
 * @file
 * Shared test fixtures: canned clusters, coroutine helpers, and the hex
 * form golden-byte tests compare encodings in.
 */
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "sim/task.h"

namespace remora::test {

/**
 * A cluster that, at teardown, fails the test if a coroutine is
 * blocked forever.
 */
struct CheckedCluster : cluster::Cluster
{
    using Cluster::Cluster;

    ~CheckedCluster()
    {
        // "Queue drained" must mean "all done", not "blocked forever":
        // a park at quiescence waited for a wakeup that never came.
        // With live events still pending the run merely stopped early,
        // so parked coroutines are legitimate.
        if (sim.livePendingEvents() == 0) {
            EXPECT_EQ(sim.blockedTaskCount(), 0u)
                << "coroutine(s) blocked forever at cluster teardown";
        }
    }
};

/** Two directly-linked nodes, as on the paper's measurement testbed. */
struct TwoNodeCluster : CheckedCluster
{
    mem::Node &nodeA;
    mem::Node &nodeB;
    rmem::RmemEngine &engineA;
    rmem::RmemEngine &engineB;

    explicit TwoNodeCluster(const rmem::CostModel &costs = {})
        : CheckedCluster({.names = {"nodeA", "nodeB"}, .costs = costs}),
          nodeA(*nodes[0]), nodeB(*nodes[1]), engineA(*engines[0]),
          engineB(*engines[1])
    {}
};

/** N nodes, "node1" to "node<N>", on a switch. */
struct SwitchedCluster : CheckedCluster
{
    explicit SwitchedCluster(size_t n, const rmem::CostModel &costs = {})
        : CheckedCluster(spec(n, costs))
    {}

  private:
    static cluster::ClusterSpec
    spec(size_t n, const rmem::CostModel &costs)
    {
        cluster::ClusterSpec s;
        s.switched = true;
        s.costs = costs;
        for (size_t i = 1; i <= n; ++i) {
            s.names.push_back("node" + std::to_string(i));
        }
        return s;
    }
};

/** Export a fresh @p size-byte segment of @p proc on @p engine. */
inline rmem::ImportedSegment
makeSegment(rmem::RmemEngine &engine, mem::Process &proc, uint32_t size,
            rmem::Rights rights = rmem::Rights::kAll,
            rmem::NotifyPolicy policy = rmem::NotifyPolicy::kConditional)
{
    mem::Vaddr base = proc.space().allocRegion(size);
    auto h = engine.exportSegment(proc, base, size, rights, policy, "seg");
    EXPECT_TRUE(h.ok()) << h.status().toString();
    return h.value();
}

/** Drive the simulator until @p task completes (or the queue drains). */
template <typename T>
T
runToCompletion(sim::Simulator &sim, sim::Task<T> &task)
{
    while (!task.done() && sim.step()) {
    }
    EXPECT_TRUE(task.done()) << "task did not complete; event queue drained";
    return task.result();
}

/** void specialization driver. */
inline void
runToCompletion(sim::Simulator &sim, sim::Task<void> &task)
{
    while (!task.done() && sim.step()) {
    }
    EXPECT_TRUE(task.done()) << "task did not complete; event queue drained";
    task.result();
}

/** Lower-case hex of @p bytes, two digits per byte. */
inline std::string
hexOf(std::span<const uint8_t> bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (uint8_t b : bytes) {
        out += kDigits[b >> 4];
        out += kDigits[b & 0x0f];
    }
    return out;
}

/** The bytes a hexOf() string spells. */
inline std::vector<uint8_t>
bytesOf(const std::string &hex)
{
    std::vector<uint8_t> out;
    for (size_t i = 0; i + 1 < hex.size(); i += 2) {
        out.push_back(static_cast<uint8_t>(std::stoul(hex.substr(i, 2),
                                                      nullptr, 16)));
    }
    return out;
}

} // namespace remora::test
