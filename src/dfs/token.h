/**
 * @file
 * Token-based write coherence over the communication primitives.
 *
 * Section 5.1, discussing Calypso-style cluster file systems: "This
 * scheme can be extended to use our communication primitives without
 * involving control transfers in most cases. Token acquire and release
 * can be implemented using compare-and-swap operations. Token
 * revocation is trickier. One option is to use control transfer (e.g.,
 * using Hybrid-1 as described below); another is to delay revocation
 * during certain conditions ... For the commonly occurring sharing
 * patterns in distributed file systems, we expect the usage of control
 * transfer for coherence to be rare."
 *
 * Implementation:
 *
 *  - the *token area* is a segment exported by the server: a
 *    direct-mapped table of 16-byte slots, each holding the owning
 *    node's tag and the resource key it guards, plus a small holder
 *    directory mapping node tags to each clerk's revocation segment;
 *  - acquire = remote CAS(free -> myTag) on the slot — one wire round
 *    trip, no server process involvement;
 *  - clerks *cache* tokens: release is deferred (held locally), so
 *    repeated writes to the same file cost zero coherence traffic;
 *  - on contention, the contender looks up the holder in the directory
 *    and sends a revocation request — a remote write with notification
 *    into the holder's revocation segment (the rare control transfer);
 *    the holder releases as soon as it is not mid-write.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "dfs/file_store.h"
#include "rmem/engine.h"
#include "sim/task.h"
#include "util/status.h"

namespace remora::dfs {

/** Sizing/behaviour of the token protocol. */
struct TokenParams
{
    /** Slots in the server's token table (direct-mapped by key). */
    uint32_t tokenSlots = 256;
    /** Give up acquiring after this long (0 = forever). */
    sim::Duration acquireTimeout = sim::msec(50);
};

/** Bytes per token-table slot: holder tag, pad, resource key. */
inline constexpr uint32_t kTokenSlotBytes = 16;
/** Bytes per holder-directory entry: desc, pad, generation, size. */
inline constexpr uint32_t kHolderEntryBytes = 8;
/** Maximum node id representable in the holder directory. */
inline constexpr uint32_t kMaxTokenNodes = 64;

/** Token-area byte size for @p params. */
constexpr uint32_t
tokenAreaBytes(const TokenParams &params)
{
    return params.tokenSlots * kTokenSlotBytes +
           kMaxTokenNodes * kHolderEntryBytes;
}

/** Direct-mapped token slot of a resource key. */
uint32_t tokenSlotOf(uint64_t key, uint32_t slots);

/**
 * Server-side setup: exports the token area. The server process is not
 * otherwise involved in the protocol — all state changes are remote
 * CAS/writes by the clerks.
 */
class TokenArea
{
  public:
    /**
     * @param engine The server node's engine.
     * @param owner Server process providing the memory.
     * @param params Sizing.
     */
    TokenArea(rmem::RmemEngine &engine, mem::Process &owner,
              const TokenParams &params = {});

    /** Handle clerks use to reach the table. */
    rmem::ImportedSegment handle() const { return handle_; }

    /** Parameters in force. */
    const TokenParams &params() const { return params_; }

    /** Direct inspection for tests: current holder tag of @p key. */
    uint32_t holderOf(uint64_t key) const;

  private:
    rmem::RmemEngine &engine_;
    mem::Process &owner_;
    TokenParams params_;
    mem::Vaddr base_ = 0;
    rmem::ImportedSegment handle_;
};

/** Per-clerk participant in the token protocol. */
class TokenClient
{
  public:
    /**
     * @param engine The clerk node's engine.
     * @param owner Clerk process (revocation + scratch memory).
     * @param area The server's token area handle.
     * @param params Must match the area's.
     *
     * The client's tag is its node id + 1 (tag 0 means "free").
     * Construction registers the client's revocation segment in the
     * holder directory with one remote write.
     */
    TokenClient(rmem::RmemEngine &engine, mem::Process &owner,
                const rmem::ImportedSegment &area,
                const TokenParams &params = {});

    /**
     * Acquire the write token for @p key.
     *
     * Fast paths: already held locally (free — the common case the
     * paper counts on); free slot (one CAS). Contended path: revoke
     * request to the holder (control transfer), then CAS retries with
     * backoff.
     */
    sim::Task<util::Status> acquire(uint64_t key);

    /**
     * Release the token for @p key back to the table (one remote CAS
     * myTag -> 0). Normally only called when revoked; callers keep
     * tokens cached otherwise.
     */
    sim::Task<util::Status> release(uint64_t key);

    /** True when this client currently caches the token for @p key. */
    bool holds(uint64_t key) const { return held_.count(key) != 0; }

    /** Mark @p key busy: revocation is deferred until endUse(). */
    void beginUse(uint64_t key) { busy_.insert(key); }

    /** End the busy section; honours any deferred revocation. */
    void endUse(uint64_t key);

    /** Tokens acquired without any wire traffic (local cache hits). */
    uint64_t localHits() const { return localHits_; }

    /** Revocation requests this client had to send. */
    uint64_t revocationsSent() const { return revokesSent_; }

    /** Revocation requests this client received and honoured. */
    uint64_t revocationsHonoured() const { return revokesHonoured_; }

  private:
    /** Serve one incoming revocation request. */
    void onRevokeRequest(const rmem::Notification &n);

    /** Byte offset of the token slot for @p key. */
    uint32_t slotOffset(uint64_t key) const;

    rmem::RmemEngine &engine_;
    mem::Process &owner_;
    rmem::ImportedSegment area_;
    TokenParams params_;
    uint32_t myTag_;
    rmem::SegmentId scratchSeg_ = 0;
    mem::Vaddr scratchBase_ = 0;
    mem::Vaddr revokeBase_ = 0;
    rmem::ImportedSegment revokeHandle_;

    std::unordered_set<uint64_t> held_;
    std::unordered_set<uint64_t> busy_;
    std::unordered_set<uint64_t> revokeWanted_;
    /** Cache of peer revocation-segment handles, by holder tag. */
    std::unordered_map<uint32_t, rmem::ImportedSegment> peerRevoke_;
    uint64_t localHits_ = 0;
    uint64_t revokesSent_ = 0;
    uint64_t revokesHonoured_ = 0;
};

} // namespace remora::dfs
