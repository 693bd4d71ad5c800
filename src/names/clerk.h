/**
 * @file
 * The segment name service: fully-distributed clerks (§4).
 *
 * The name server is "logically structured as a centralized service,
 * but physically organized as a distributed collection of clerks, one
 * per machine" with *no* central server. Each clerk:
 *
 *  - exports a well-known registry segment (an open-addressed hash
 *    table of NameRecords) at boot, granting access to the other
 *    clerks;
 *  - serves local kernel requests — ADDNAME / LOOKUPNAME / DELETENAME —
 *    arriving by local RPC;
 *  - satisfies lookups of remote names with *remote reads* of the
 *    exporting clerk's registry, probing the identical hash sequence
 *    (usually one read suffices);
 *  - caches imported name information and refreshes the cache on
 *    request (refresh()), purging stale entries;
 *  - optionally resolves lookups by control transfer (a remote write
 *    with notification served by the remote clerk's signal handler) —
 *    the fallback §4.2 weighs against probing and finds worthwhile
 *    only past ~seven collisions.
 *
 * The clerk must be the first exporter on its node so its well-known
 * segments land in deterministic descriptor slots (the paper's
 * "certain well-known segment names have been reserved on each machine
 * to allow the name service to bootstrap itself").
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "names/name_record.h"
#include "rmem/engine.h"
#include "rpc/local_rpc.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "util/status.h"

namespace remora::names {

/** How a clerk resolves lookups that miss its local state (§4.2). */
enum class ProbePolicy : uint8_t
{
    /** Keep probing hash buckets with remote reads until empty/found. */
    kProbeOnly = 0,
    /** Probe a few buckets, then fall back to control transfer. */
    kProbeThenControl,
    /** Ask the remote clerk directly via control transfer. */
    kControlOnly,
};

/** Behaviour knobs of a clerk. */
struct NameClerkParams
{
    /** Buckets in the registry hash table. */
    uint32_t buckets = 512;
    /** Lookup resolution strategy. */
    ProbePolicy policy = ProbePolicy::kProbeOnly;
    /** Probes before control transfer under kProbeThenControl. */
    uint32_t probeLimit = 7;
    /** Deadline for each remote read (0 = forever). */
    sim::Duration readTimeout = sim::msec(50);
};

/** Per-clerk statistics. */
struct NameClerkStats
{
    sim::Counter exportsServed;
    sim::Counter importsServed;
    sim::Counter deletesServed;
    sim::Counter localHits;
    sim::Counter cacheHits;
    sim::Counter remoteReads;
    sim::Counter remoteProbes;
    sim::Counter controlTransfers;
    sim::Counter refreshPurges;
};

/** One node's name-service clerk. */
class NameClerk
{
  public:
    /** Well-known descriptor slot of every clerk's registry segment. */
    static constexpr rmem::SegmentId kRegistryDescriptor = 0;
    /** Well-known descriptor slot of the clerk's scratch segment. */
    static constexpr rmem::SegmentId kScratchDescriptor = 1;
    /** Well-known descriptor slot of the lookup-request segment. */
    static constexpr rmem::SegmentId kRequestDescriptor = 2;

    /**
     * Boot the clerk on @p engine's node. Must be the first exporter on
     * the node (asserts the well-known descriptor slots).
     */
    explicit NameClerk(rmem::RmemEngine &engine,
                       const NameClerkParams &params = {});

    NameClerk(const NameClerk &) = delete;
    NameClerk &operator=(const NameClerk &) = delete;

    /**
     * Import the well-known segments of the clerk on @p node so lookup
     * reads and control transfers can reach it.
     */
    void addPeer(net::NodeId node);

    // ------------------------------------------------------------------
    // The user-visible operations (Table 3 measures these)
    // ------------------------------------------------------------------

    /**
     * Export @p owner's range under @p name (ADDNAME path): kernel
     * call, descriptor + generation assignment, page pinning, local RPC
     * to the clerk, registry insertion.
     *
     * @p owner is a pointer, not a reference: the coroutine suspends
     * while it is live, so the caller explicitly vouches that the
     * process outlives the export (references could silently bind a
     * temporary; see remora-coroutine-ref-param).
     */
    sim::Task<util::Result<rmem::ImportedSegment>> exportByName(
        mem::Process *owner, mem::Vaddr base, uint32_t size,
        rmem::Rights rights, rmem::NotifyPolicy policy,
        std::string name);

    /**
     * Import @p name (LOOKUPNAME path): local registry, then import
     * cache, then remote resolution at @p hint per the probe policy.
     *
     * @param name The segment name.
     * @param hint User-supplied hint naming the likely exporter (§4.2);
     *        without one, peers are tried in id order.
     * @param forceRemote Skip the import cache ("users can force a
     *        specific import operation to do an explicit remote
     *        lookup").
     * @param policyOverride Resolve with this probe policy instead of
     *        the clerk-wide one (per §4.2 the right choice is
     *        application-dependent).
     */
    sim::Task<util::Result<rmem::ImportedSegment>> import(
        std::string name, std::optional<net::NodeId> hint,
        bool forceRemote = false,
        std::optional<ProbePolicy> policyOverride = std::nullopt);

    /**
     * Delete @p name and revoke the segment (DELETENAME path). Deletion
     * is local-only: remote cached copies age out via refresh.
     */
    sim::Task<util::Status> revoke(std::string name);

    /**
     * One cache-refresh pass: re-read every cached import from its
     * home clerk; purge entries that vanished or changed generation.
     */
    sim::Task<void> refresh();

    /** Counters. */
    const NameClerkStats &stats() const { return stats_; }

    /** The engine this clerk runs over. */
    rmem::RmemEngine &engine() { return engine_; }

  private:
    /** Find a name in the local registry memory; nullopt if absent. */
    std::optional<NameRecord> localFind(const std::string &name);

    /** Insert a record into the local registry memory. */
    util::Status localInsert(const NameRecord &rec);

    /** Mark a local registry record deleted. */
    bool localDelete(const std::string &name);

    /** Resolve remotely at @p node per @p policy. */
    sim::Task<util::Result<NameRecord>> resolveAt(net::NodeId node,
                                                  std::string name,
                                                  ProbePolicy policy);

    /** Probe @p node's registry with remote reads. */
    sim::Task<util::Result<NameRecord>> probeRemote(net::NodeId node,
                                                    std::string name,
                                                    uint32_t maxProbes);

    /** Ask @p node's clerk via remote write + notification. */
    sim::Task<util::Result<NameRecord>> controlTransferLookup(
        net::NodeId node, std::string name);

    /** Serve one incoming control-transfer lookup request. */
    void onLookupRequest(const rmem::Notification &n);

    /** Registry bucket base offset for probe @p i of @p name. */
    uint32_t bucketOffset(const std::string &name, uint32_t probe) const;

    rmem::RmemEngine &engine_;
    NameClerkParams params_;
    mem::Process &process_;
    rpc::LocalRpc lrpc_;

    mem::Vaddr registryBase_ = 0;
    mem::Vaddr scratchBase_ = 0;
    mem::Vaddr requestBase_ = 0;
    rmem::ImportedSegment registryHandle_;
    rmem::ImportedSegment scratchHandle_;
    rmem::ImportedSegment requestHandle_;

    struct Peer
    {
        rmem::ImportedSegment registry;
        rmem::ImportedSegment request;
    };
    std::unordered_map<net::NodeId, Peer> peers_;

    /** name -> descriptor of segments exported through this clerk. */
    std::unordered_map<std::string, rmem::SegmentId> localExports_;

    struct CachedImport
    {
        NameRecord record;
        net::NodeId home;
    };
    std::unordered_map<std::string, CachedImport> importCache_;

    uint32_t ctSeq_ = 0;
    NameClerkStats stats_;
};

} // namespace remora::names
