/**
 * @file
 * Synthetic NFS workload generator.
 *
 * Draws an operation stream whose class distribution follows Table 1a
 * and whose transfer sizes follow a fixed model of the
 * departmental server's exported partitions (mostly read-only fonts,
 * source trees, and /usr binaries). Two uses:
 *
 *  - *accounting replay* (Table 1a/1b): classify each drawn op's bytes
 *    without simulating the cluster — millions of ops in milliseconds;
 *  - *driving the simulated file service* (scaling experiments): each
 *    drawn op names a file in a generated tree, ready to issue against
 *    a ServerClerk.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dfs/file_store.h"
#include "sim/random.h"
#include "trace/classifier.h"
#include "trace/mix.h"

namespace remora::trace {

/** A weighted table of transfer sizes: (bytes, weight) rows. */
using SizeTable = std::span<const std::pair<uint32_t, double>>;

/**
 * Read sizes (bytes) and their weights. Mean ~2.2 KB, calibrated so the
 * Table 1b overall control/data ratio lands at the published 0.14 (the
 * 1994 server's size distribution is unpublished; see EXPERIMENTS.md).
 */
inline constexpr std::pair<uint32_t, double> kReadSizes[] = {
    {512, 0.30}, {1024, 0.25}, {2048, 0.20}, {4096, 0.15}, {8192, 0.10}};
/** Write sizes (bytes) and their weights. */
inline constexpr std::pair<uint32_t, double> kWriteSizes[] = {{4096, 0.5},
                                                             {8192, 0.5}};
/** Readdir reply sizes (bytes) and their weights. */
inline constexpr std::pair<uint32_t, double> kReaddirSizes[] = {
    {512, 0.4}, {1024, 0.35}, {4096, 0.25}};

/** One drawn operation. */
struct Op
{
    OpClass cls = OpClass::kNullPing;
    /** Transfer size (read/write/readdir). */
    uint32_t bytes = 0;
    /** Index of the target file in the generated file set. */
    uint32_t fileIdx = 0;
    /** Block-aligned file offset for reads/writes. */
    uint64_t offset = 0;
};

/** Aggregate of a replay: per-class counts and classified traffic. */
struct TrafficSummary
{
    uint64_t opCount[kNumOpClasses] = {};
    Traffic perClass[kNumOpClasses] = {};
    uint64_t totalOps = 0;

    /** Combined traffic across classes. */
    Traffic total() const;
};

/** Table-1a-shaped operation stream. */
class WorkloadGen
{
  public:
    /**
     * @param seed Deterministic stream seed.
     * @param fileCount Size of the synthetic file population (targets
     *        are drawn Zipf-skewed, hot files first).
     */
    explicit WorkloadGen(uint64_t seed, uint32_t fileCount = 64);

    /** Draw the next operation. */
    Op next();

    /**
     * Accounting replay: draw @p ops operations and classify each
     * (no cluster simulation).
     */
    TrafficSummary replay(uint64_t ops);

    /**
     * Classify the *exact* Table 1a population: every published call,
     * with sizes weighted by the size tables per class (this is how the
     * Table 1b reproduction is computed; no sampling noise on counts).
     */
    TrafficSummary replayPaperPopulation();

  private:
    /** Draw a size from a weighted table. */
    uint32_t drawSize(SizeTable table);

    sim::Random rng_;
    sim::Random::Discrete classDist_;
    sim::Random::Zipf filePick_;
};

/**
 * Build a file tree shaped like the paper's exported partitions in
 * @p store: font files, a source tree, and binaries, plus symlinks.
 *
 * @return Handles of the created regular files (workload targets),
 *         ordered hot-first to match the generator's Zipf draw.
 */
std::vector<dfs::FileHandle> buildPaperFileSet(dfs::FileStore &store,
                                               uint32_t fileCount,
                                               uint64_t seed);

} // namespace remora::trace
