/**
 * @file
 * The server clerk: the client-machine half of the file service (§3.2).
 *
 * "Each distributed service has server clerks that execute on the
 * client machines. All client-server interactions are done through
 * local cross-address-space communication between the client and the
 * server clerk." The clerk keeps the four local cache areas of §5.1
 * (file data, name lookup, file attributes, directory entries — plus
 * symlinks) and goes to the server through whichever transfer backend
 * it was built with, so the identical caching clerk runs over DX, HY,
 * or conventional RPC.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfs/backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/local_rpc.h"
#include "sim/stats.h"

namespace remora::dfs {

/** Clerk statistics. */
struct ClerkStats
{
    sim::Counter requests;
    sim::Counter localHits;
    sim::Counter backendCalls;
};

/** Client-side clerk of the distributed file service. */
class ServerClerk
{
  public:
    /**
     * @param cpu The client node's CPU (local RPC costs land here).
     * @param backend The clerk-to-server transfer path (not owned).
     */
    ServerClerk(sim::CpuResource &cpu, FileServiceBackend &backend);

    /** NULL ping straight through to the backend. */
    sim::Task<util::Status> null();

    /** Attributes of @p fh (attribute cache area). */
    sim::Task<util::Result<FileAttr>> getattr(FileHandle fh);

    /** Resolve @p name under @p dir (name-lookup cache area). */
    sim::Task<util::Result<LookupReply>> lookup(FileHandle dir,
                                                std::string name);

    /** Read file data (file-data cache area, block granular). */
    sim::Task<util::Result<std::vector<uint8_t>>> read(FileHandle fh,
                                                       uint64_t offset,
                                                       uint32_t count);

    /** Write file data (write-through to the backend). */
    sim::Task<util::Status> write(FileHandle fh, uint64_t offset,
                                  std::vector<uint8_t> data);

    /** Symlink target (symlink cache area). */
    sim::Task<util::Result<std::string>> readlink(FileHandle fh);

    /** Directory entries (directory-contents cache area). */
    sim::Task<util::Result<std::vector<DirEntry>>> readdir(
        FileHandle fh, uint32_t maxBytes);

    /** Filesystem statistics (cached briefly). */
    sim::Task<util::Result<FsStat>> statfs();

    /** Drop every locally cached datum. */
    void invalidateAll();

    /** Drop cached state for one file handle. */
    void invalidate(FileHandle fh);

    /** Counters. */
    const ClerkStats &stats() const { return stats_; }

    /** Register clerk counters under "<prefix>.requests" etc. */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

    /** The transfer backend in use. */
    FileServiceBackend &backend() { return backend_; }

  private:
    /** One in-flight clerk operation's trace context. */
    struct ClerkOp
    {
        /** Span covering the clerk's own work (kNoSpan when off). */
        obs::SpanId span = obs::kNoSpan;
        /** Async op rooting this operation's cross-node DAG. */
        uint64_t op = 0;
    };

    /**
     * Open the trace context for clerk op @p op: an async op (so the
     * backend's remote transfers become its children in the DAG) plus
     * a span attributed to it.
     */
    ClerkOp beginOp(const char *op);

    /** Close a ClerkOp (span + async end); no-op when tracing is off. */
    void endOp(const ClerkOp &op, const char *name);

    sim::CpuResource &cpu_;
    FileServiceBackend &backend_;
    /** The client <-> clerk local RPC, charged on every operation. */
    rpc::LocalRpc lrpc_;

    // The clerk-side cache areas (§5.1), keyed like the server's.
    std::unordered_map<uint64_t, FileAttr> attrCache_;
    std::map<std::pair<uint64_t, std::string>, LookupReply> nameCache_;
    std::map<std::pair<uint64_t, uint64_t>, std::vector<uint8_t>>
        blockCache_;
    std::unordered_map<uint64_t, std::string> linkCache_;
    std::unordered_map<uint64_t, std::vector<DirEntry>> dirCache_;
    bool statValid_ = false;
    FsStat statCache_;

    ClerkStats stats_;
};

} // namespace remora::dfs
