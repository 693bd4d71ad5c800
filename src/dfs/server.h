/**
 * @file
 * The distributed file service's server.
 *
 * The server owns the FileStore and exports its cache areas (§5.1) as
 * remote-memory segments so clerks can satisfy requests by pure data
 * transfer. It simultaneously serves the control-transfer paths:
 * Hybrid-1 (write-with-notify + return writes, the paper's HY scheme)
 * and, optionally, the conventional RPC transport — all three paths
 * answer from the same store with the same warm-cache service times,
 * so the benchmarks compare communication structure and nothing else.
 *
 * DX writes land in the data area with a dirty mark; a lazy scavenger
 * batch-applies them to the FileStore without any per-operation control
 * transfer (the eager/lazy option §3.2 sketches).
 */
#pragma once

#include <array>
#include <cstdint>

#include "dfs/cache_layout.h"
#include "dfs/file_store.h"
#include "dfs/nfs_proto.h"
#include "dfs/push_cache.h"
#include "dfs/service_times.h"
#include "obs/metrics.h"
#include "rpc/hybrid1.h"
#include "rpc/transport.h"
#include "sim/stats.h"

namespace remora::dfs {

/** The server's exported cache areas. */
enum class CacheArea : uint8_t
{
    kData = 0,
    kName,
    kAttr,
    kDir,
    kLink,
    kStat,
    kNumAreas,
};

/** Handles a clerk needs to reach every cache area. */
struct ServerAreaHandles
{
    rmem::ImportedSegment data;
    rmem::ImportedSegment name;
    rmem::ImportedSegment attr;
    rmem::ImportedSegment dir;
    rmem::ImportedSegment link;
    rmem::ImportedSegment stat;
};

/** Server statistics. */
struct FileServerStats
{
    sim::Counter callsServed;
    sim::Counter cacheInserts;
    sim::Counter cacheEvictions;
    sim::Counter dirtyBlocksApplied;
};

/** The file server: store + exported caches + control-transfer paths. */
class FileServer
{
  public:
    /**
     * @param engine The server node's remote-memory engine.
     * @param store The filesystem (not owned; must outlive the server).
     * @param geometry Cache-area sizing.
     * @param times Warm-cache procedure times.
     * @param hybridParams Hybrid-1 endpoint sizing.
     */
    FileServer(rmem::RmemEngine &engine, FileStore &store,
               const CacheGeometry &geometry = {},
               const ServiceTimes &times = {},
               const rpc::Hybrid1Params &hybridParams = {});

    FileServer(const FileServer &) = delete;
    FileServer &operator=(const FileServer &) = delete;

    /** Start the Hybrid-1 dispatch loop. */
    void start();

    /** Handles for all cache areas (give these to DX clerks). */
    ServerAreaHandles areaHandles() const { return handles_; }

    /** Handle of the Hybrid-1 request segment (give to HY clerks). */
    rmem::ImportedSegment
    hybridHandle() const
    {
        return hybrid_.requestSegmentHandle();
    }

    /** Assign a Hybrid-1 client slot. */
    uint32_t allocClientSlot() { return hybrid_.allocSlot(); }

    /** Serve the conventional RPC baseline on @p transport too. */
    void attachRpcTransport(rpc::RpcTransport &transport);

    /**
     * Register a clerk's push cache (§5.1 "Write Requests Only"): from
     * now on, whenever the server refreshes an attribute record or a
     * data block in its own areas, it also remote-writes the record
     * into @p clerkCache — plain data transfer, no notification.
     *
     * @param clerkCache Handle from ClerkPushCache::handle().
     * @param geometry The clerk cache's sizing.
     */
    void subscribe(const rmem::ImportedSegment &clerkCache,
                   const PushCacheGeometry &geometry);

    /** Remote writes issued to subscribers so far. */
    uint64_t pushesIssued() const { return pushes_; }

    // ------------------------------------------------------------------
    // Cache maintenance
    // ------------------------------------------------------------------

    /**
     * Populate every cache area from the store (the 100%-server-hit
     * setup Figures 2 and 3 assume).
     *
     * @return Number of direct-mapped collisions (evictions); the
     *         reproduction benches require this to be zero for their
     *         working set.
     */
    uint32_t warmCaches();

    /** Insert/update the attribute record for @p fh. */
    void cacheAttr(FileHandle fh);

    /** Insert/update the name-lookup record for (dir, name). */
    void cacheName(FileHandle dir, const std::string &name);

    /** Insert/update block @p blockNo of @p fh in the data area. */
    void cacheBlock(FileHandle fh, uint64_t blockNo);

    /** Insert/update the directory-contents slot for @p dir. */
    void cacheDir(FileHandle dir);

    /** Insert/update the symlink record for @p fh. */
    void cacheLink(FileHandle fh);

    /** Refresh the statistics record. */
    void cacheStat();

    /**
     * Apply dirty (clerk-written) data-area blocks to the FileStore.
     *
     * @return Blocks applied in this pass.
     */
    uint64_t scavengeDirtyBlocks();

    /** Run scavengeDirtyBlocks() every @p interval forever. */
    void startScavenger(sim::Duration interval);

    /** Procedure-time table in force. */
    const ServiceTimes &serviceTimes() const { return times_; }

    /** Counters. */
    const FileServerStats &stats() const { return stats_; }

    /** Register server counters under "<prefix>.calls_served" etc. */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Execute one marshaled call body ([proc][args]) against the store,
     * charging warm-cache service time. Exposed so tests can exercise
     * the dispatcher directly.
     */
    sim::Task<std::vector<uint8_t>> handleBody(net::NodeId src,
                                               std::vector<uint8_t> body);

  private:
    /** Write @p bytes at @p offset of @p area's memory. */
    void storeBytes(CacheArea area, uint64_t offset,
                    std::span<const uint8_t> bytes);

    /** Read @p out.size() bytes at @p offset of @p area's memory. */
    void loadBytes(CacheArea area, uint64_t offset,
                   std::span<uint8_t> out) const;

    /**
     * Write @p rec, flagged valid, into its slot of @p area and @p tail
     * right after it, counting the insert and any eviction of another
     * tag. @return The record's bytes.
     */
    template <typename R>
    std::vector<uint8_t> install(CacheArea area, R rec,
                                 std::span<const uint8_t> tail = {});

    /** Eagerly remote-write @p bytes to @p rec's slot in every
     *  subscriber's push cache. */
    template <typename R>
    void push(const R &rec, std::span<const uint8_t> bytes);

    rmem::RmemEngine &engine_;
    FileStore &store_;
    CacheGeometry geo_;
    ServiceTimes times_;
    mem::Process &process_;
    rpc::Hybrid1Server hybrid_;
    std::array<mem::Vaddr,
               static_cast<size_t>(CacheArea::kNumAreas)> areaBase_{};
    std::array<uint32_t,
               static_cast<size_t>(CacheArea::kNumAreas)> areaBytes_{};
    ServerAreaHandles handles_;
    struct Subscriber
    {
        rmem::ImportedSegment seg;
        PushCacheGeometry geo;
    };
    std::vector<Subscriber> subscribers_;
    uint64_t pushes_ = 0;
    FileServerStats stats_;
};

} // namespace remora::dfs
