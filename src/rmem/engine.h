/**
 * @file
 * The remote-memory kernel emulation engine: the paper's core.
 *
 * One RmemEngine per node plays the role of the in-kernel co-processor
 * emulation: it implements the three non-privileged meta-instructions
 * (WRITE, READ, CAS) on the initiating side, and validates + executes
 * incoming requests on the serving side, entirely without involving the
 * remote *process* — only the remote kernel's data path runs, which is
 * what "pure data transfer" means in the paper.
 *
 * Initiator semantics follow §3.1.1:
 *  - write() resolves when the data has been accepted by the network
 *    (no delivery acknowledgement; reliability is the network's job);
 *  - read() is issued without blocking the node, and the returned task
 *    resolves when the data has been deposited in the local destination
 *    segment (or a NAK/timeout arrives);
 *  - cas() resolves when the success/failure word has been deposited.
 *
 * Target-side semantics:
 *  - every request is validated against the descriptor table (slot,
 *    generation, rights, bounds, write-inhibit) — protection is
 *    enforced, failures NAK;
 *  - data lands in (or is read from) the owning process's address
 *    space through its page table;
 *  - notification fires only when the segment's policy combined with
 *    the request's notify bit asks for control transfer.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/node.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rmem/cost_model.h"
#include "rmem/descriptor.h"
#include "rmem/protocol.h"
#include "rmem/segment.h"
#include "rmem/vector_op.h"
#include "rmem/wire.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "util/status.h"

namespace remora::rmem {

/** Result of a completed read meta-instruction. */
struct ReadOutcome
{
    util::Status status;
    /** The data, also deposited at the local destination. */
    std::vector<uint8_t> data;
};

/** Result of a completed CAS meta-instruction. */
struct CasOutcome
{
    util::Status status;
    /** True when the swap took effect. */
    bool success = false;
    /** Value observed at the remote location before the swap. */
    uint32_t observed = 0;
};

/** Engine statistics. */
struct EngineStats
{
    sim::Counter writesIssued;
    sim::Counter readsIssued;
    sim::Counter casIssued;
    sim::Counter requestsServed;
    sim::Counter naksSent;
    sim::Counter naksReceived;
    sim::Counter notificationsPosted;
    sim::Counter timeouts;
    /** Vectored meta-instructions issued (batches, not sub-ops). */
    sim::Counter vectorsIssued;
    /** Sub-ops carried by issued vectored meta-instructions. */
    sim::Counter vectorSubOps;
    /** Vectored requests served (batches). */
    sim::Counter vectorServed;
    /** Sub-ops executed on the serving side. */
    sim::Counter vectorSubOpsServed;
    /** Coalesced doorbells posted (one per channel per served batch). */
    sim::Counter vectorDoorbells;
    /** Serving-side validations elided by the per-batch cache. */
    sim::Counter vectorValidateHits;
};

/** Per-node remote-memory kernel layer. */
class RmemEngine
{
  public:
    /**
     * @param node The node this kernel runs on.
     * @param costs Cost model (shared across the cluster for fairness).
     */
    explicit RmemEngine(mem::Node &node, const CostModel &costs = {});

    RmemEngine(const RmemEngine &) = delete;
    RmemEngine &operator=(const RmemEngine &) = delete;

    // ------------------------------------------------------------------
    // Export-side kernel calls
    // ------------------------------------------------------------------

    /**
     * Export [base, base+size) of @p owner's space for remote access.
     *
     * Pins the pages (remote access bypasses the owner) and assigns a
     * descriptor slot and a fresh generation.
     *
     * @return Handle describing the export, or kResource / kOutOfBounds.
     */
    util::Result<ImportedSegment> exportSegment(mem::Process &owner,
                                                mem::Vaddr base,
                                                uint32_t size, Rights rights,
                                                NotifyPolicy policy,
                                                const std::string &name);

    /**
     * Revoke an exported segment: unpin, invalidate the slot, bump the
     * generation so outstanding imports go stale.
     */
    util::Status revokeSegment(SegmentId id);

    /** Toggle the write-inhibit flag used for synchronization (§3.1.1). */
    util::Status setWriteInhibit(SegmentId id, bool inhibit);

    /** The segment's notification channel; nullptr for invalid ids. */
    NotificationChannel *channel(SegmentId id);

    /** Kernel descriptor state; nullptr for invalid ids. */
    SegmentDescriptor *descriptor(SegmentId id);

    /**
     * An ImportedSegment handle for a locally exported segment (what
     * the name service hands to importers on other nodes).
     */
    util::Result<ImportedSegment> localHandle(SegmentId id) const;

    // ------------------------------------------------------------------
    // Meta-instructions (initiator side)
    // ------------------------------------------------------------------

    /**
     * WRITE: deposit @p data at @p offset within remote segment @p dst.
     *
     * Resolves with kOk once the data is accepted by the network (the
     * paper's local-completion guarantee); protection failures at the
     * destination arrive later as NAKs and are *not* reported here —
     * they surface via nakCount() and, if the importer cares, through
     * reads that observe missing data. Data larger than one frame is
     * fragmented transparently.
     *
     * @param dst Imported remote segment (needs kWrite).
     * @param offset Byte offset within the segment.
     * @param data Bytes to write.
     * @param notify Request control transfer at the destination.
     */
    sim::Task<util::Status> write(ImportedSegment dst, uint32_t offset,
                                  std::vector<uint8_t> data,
                                  bool notify = false);

    /**
     * READ: fetch @p count bytes at @p srcOff of remote @p src into the
     * local segment @p dstSeg at @p dstOff.
     *
     * @param src Imported remote segment (needs kRead).
     * @param srcOff Byte offset within the remote segment.
     * @param dstSeg Locally exported destination segment.
     * @param dstOff Offset within the local segment.
     * @param count Bytes to fetch (chunked transparently if large).
     * @param notify Request local notification when the data lands.
     * @param timeout Zero = wait forever; otherwise resolve kTimeout.
     */
    sim::Task<ReadOutcome> read(ImportedSegment src, uint32_t srcOff,
                                SegmentId dstSeg, uint32_t dstOff,
                                uint32_t count, bool notify = false,
                                sim::Duration timeout = 0);

    /**
     * CAS: atomically compare-and-swap the word at @p offset of remote
     * @p dst; the success word is deposited at (resultSeg, resultOff).
     *
     * @param dst Imported remote segment (needs kCas).
     * @param offset Word-aligned byte offset of the target word.
     * @param oldValue Comparand.
     * @param newValue Value stored on successful comparison.
     * @param resultSeg Locally exported segment for the result word.
     * @param resultOff Word-aligned offset for the result word.
     * @param timeout Zero = wait forever.
     */
    sim::Task<CasOutcome> cas(ImportedSegment dst, uint32_t offset,
                              uint32_t oldValue, uint32_t newValue,
                              SegmentId resultSeg, uint32_t resultOff,
                              sim::Duration timeout = 0);

    // ------------------------------------------------------------------
    // Vectored meta-instructions (initiator side)
    // ------------------------------------------------------------------

    /**
     * Issue a pre-assembled batch as ONE vectored meta-instruction:
     * one trap + header + validation charge plus a small marginal cost
     * per sub-op, one wire message, and (for READ/CAS batches) one
     * response frame. Upper layers normally assemble the batch through
     * BatchBuilder, which performs the import-side checks at add time.
     *
     * Pure-write batches complete locally like scalar write(); target-
     * side failures arrive as NAKs. Batches carrying a READ or CAS
     * resolve when the response has been deposited, with per-sub-op
     * statuses in VectorOutcome::results.
     *
     * @param batch Sub-ops for one target node plus local deposit
     *        coordinates (parallel arrays).
     * @param timeout Zero = wait forever (response-carrying batches).
     */
    sim::Task<VectorOutcome> issueVector(VectorBatch batch,
                                         sim::Duration timeout = 0);

    /** Vectored WRITE: all ops in one frame, local completion. */
    sim::Task<util::Status> writev(std::vector<BatchBuilder::Write> ops);

    /** Vectored READ: one request, one response, N deposits. */
    sim::Task<VectorOutcome> readv(std::vector<BatchBuilder::Read> ops,
                                   sim::Duration timeout = 0);

    /** Vectored CAS: one request, one response, N result words. */
    sim::Task<VectorOutcome> casv(std::vector<BatchBuilder::Cas> ops,
                                  sim::Duration timeout = 0);

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /** The wire (shared with the RPC baseline). */
    Wire &wire() { return wire_; }

    /** The owning node. */
    mem::Node &node() { return node_; }

    /** The cost model in force. */
    const CostModel &costs() const { return costs_; }

    /** Counters. */
    const EngineStats &stats() const { return stats_; }

    /** NAKs received for writes (fire-and-forget failures). */
    uint64_t nakCount() const { return stats_.naksReceived.value(); }

    /**
     * Register this engine's counters and the underlying Wire's
     * counters under @p prefix (e.g. "nodeA.rmem").
     */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** Where one READ/CAS result lands locally (kWrite: nothing lands). */
    struct Deposit
    {
        VecOpKind kind = VecOpKind::kWrite;
        mem::Pid pid = 0;
        mem::Vaddr va = 0;
        /** Post a reader-side notification when the deposit completes. */
        bool notify = false;
        SegmentId dstSeg = 0;
    };
    /** What a pending request resolves with. */
    struct Reply
    {
        util::Status status;
        /** A scalar READ/CAS result, held inline. */
        VectorSubResult one;
        /** A vectored request's per-sub-op results. */
        std::vector<VectorSubResult> results;

        /** The results, one per deposit of the request. */
        std::span<const VectorSubResult>
        landed() const
        {
            return results.empty() ? std::span(&one, 1) : std::span(results);
        }
    };
    /**
     * A request awaiting its reply, NAK or timeout. A scalar op's single
     * deposit is held inline; a vectored op has one deposit per sub-op.
     */
    struct Pending
    {
        Deposit one;
        std::vector<Deposit> deposits;
        sim::Promise<Reply> done;
        sim::EventId timeoutEvent = 0;
        /** The arrived reply, held while its deposit event is queued. */
        std::optional<Reply> reply{};

        /** The deposits, one per result of the reply. */
        std::span<const Deposit>
        landings() const
        {
            return deposits.empty() ? std::span(&one, 1)
                                    : std::span(deposits);
        }
    };
    /** Shared progress of one served vectored request (engine.cc). */
    struct VectorServeState;

    /**
     * Open an initiator op's async trace span, named @p name with the
     * detail @p args() builds, and its "issue" span — only when tracing.
     * Returns the op id, 0 when untraced.
     */
    template <typename Args>
    uint64_t beginOp(const char *name, obs::SpanId &issueSpan, Args &&args);

    /** Close op @p opId's async trace (no-op when untraced). */
    void endOp(uint64_t opId, const char *name, const util::Status &status);

    /** Dispatch for incoming remote-memory messages. */
    void onMessage(net::NodeId src, Message &&msg);

    /**
     * Serve a single-cell WRITE, READ or CAS request in the paper's
     * stages: demux + validation, then translation + copy (a CAS
     * executes in its one stage).
     */
    template <typename Req>
    void serveScalar(net::NodeId src, Req &&req);

    /** The last stage of a single-cell request: apply, reply, notify. */
    void applyScalar(net::NodeId src, obs::SpanId span, ReqId reqId,
                     VectorSubOp &&sub);

    void serveVector(net::NodeId src, VectorReq &&req);

    /** Stage 1 of a served vector: per-batch validation + dispatch. */
    void executeVector(const std::shared_ptr<VectorServeState> &st);

    /** Last sub-op done: coalesced doorbells + response + span close. */
    void finishVector(const std::shared_ptr<VectorServeState> &st);

    /**
     * The sub-op executor both serve paths share: re-validate (the
     * segment may have been revoked since stage 1), find the owner, and
     * perform the access under @p src's race actor, filling @p res.
     * Calls @p then with the descriptor inside that actor scope, or with
     * nullptr (res.status set) when the sub-op was rejected.
     */
    template <typename Then>
    void applySubOp(net::NodeId src, const char *raceSite, VectorSubOp &sub,
                    VectorSubResult &res, Then &&then);

    /** Land a reply's READ data / CAS words and resolve its request. */
    void deposit(net::NodeId src, ReqId reqId, Reply &&reply);

    void handleNak(net::NodeId src, const Nak &nak);

    /** Track request @p id until a reply, NAK or timeout resolves it. */
    sim::Future<Reply> expect(ReqId id, Deposit one,
                              std::vector<Deposit> deposits,
                              sim::Duration timeout);

    /**
     * Resolve pending request @p id with @p code: a NAK's error, or
     * kTimeout from the request's own timeout event. False when @p id
     * is no longer pending or its reply is already being deposited.
     */
    bool fail(ReqId id, util::ErrorCode code, bool timedOut);

    /** Send a NAK for a rejected request. */
    void sendNak(net::NodeId dst, ReqId reqId, util::ErrorCode error,
                 MsgType originalType);

    /** Allocate a request id not currently pending. */
    ReqId allocReqId();

    /** The owning process of a descriptor, or nullptr if it died. */
    mem::Process *ownerOf(const SegmentDescriptor &d);

    mem::Node &node_;
    CostModel costs_;
    Wire wire_;
    DescriptorTable table_;
    std::unordered_map<ReqId, Pending> pending_;
    ReqId nextReqId_ = 1;
    EngineStats stats_;
};

} // namespace remora::rmem
