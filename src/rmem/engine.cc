#include "rmem/engine.h"

#include <algorithm>
#include <map>
#include <span>
#include <utility>

#include "rmem/race_detector.h"
#include "sim/logger.h"
#include "util/panic.h"

namespace remora::rmem {

/** Shared progress of one served vectored request. */
struct RmemEngine::VectorServeState
{
    net::NodeId src = 0;
    ReqId reqId = 0;
    bool wantResponse = false;
    uint64_t op = 0;
    obs::SpanId span = obs::kNoSpan;
    /** The request's sub-ops; each stage-2 event applies its own. */
    std::vector<VectorSubOp> ops;
    std::vector<VectorSubResult> results;
    /** Valid sub-ops whose stage-2 event has not completed yet. */
    size_t remaining = 0;
    /**
     * Notifications queued per destination segment, flushed as one
     * doorbell per channel when the last sub-op completes. Keyed by
     * slot id (deterministic order; re-resolved at flush so a segment
     * revoked mid-batch cannot dangle).
     */
    std::map<SegmentId, std::vector<Notification>> notify;
};

namespace {

/** Pages a [offset, offset+count) range touches (for translate cost). */
sim::Duration
translateCost(const CostModel &costs, uint64_t offset, uint64_t count)
{
    if (count == 0) {
        return costs.translatePageCost;
    }
    uint64_t first = offset / mem::kPageBytes;
    uint64_t last = (offset + count - 1) / mem::kPageBytes;
    return static_cast<sim::Duration>(last - first + 1) *
           costs.translatePageCost;
}

/**
 * What a served op touches: its kind, segment, byte range and (single-
 * cell requests only) the request id its reply or NAK echoes.
 */
struct SubOpKey
{
    VecOpKind kind;
    SegmentId descriptor;
    Generation generation;
    uint32_t offset;
    uint32_t count;
    ReqId reqId = 0;
};

SubOpKey
keyOf(const VectorSubOp &s)
{
    return {s.kind, s.descriptor, s.generation, s.offset, subOpBytes(s)};
}

SubOpKey
keyOf(const WriteReq &r)
{
    return {VecOpKind::kWrite, r.descriptor, r.generation, r.offset,
            static_cast<uint32_t>(r.data.size())};
}

SubOpKey
keyOf(const ReadReq &r)
{
    return {VecOpKind::kRead, r.srcDescriptor, r.generation, r.srcOffset,
            r.count, r.reqId};
}

SubOpKey
keyOf(const CasReq &r)
{
    return {VecOpKind::kCas, r.descriptor, r.generation, r.offset, 4,
            r.reqId};
}

/** The sub-op a single-cell request carries (a WRITE's payload moves). */
VectorSubOp
asSubOp(WriteReq &&r)
{
    return {VecOpKind::kWrite, r.descriptor, r.generation, r.offset,
            r.notify, std::move(r.data)};
}

VectorSubOp
asSubOp(ReadReq &&r)
{
    return {VecOpKind::kRead, r.srcDescriptor, r.generation, r.srcOffset,
            r.notify, {}, r.count};
}

VectorSubOp
asSubOp(CasReq &&r)
{
    return {VecOpKind::kCas, r.descriptor, r.generation, r.offset, r.notify,
            {}, 0, r.oldValue, r.newValue};
}

/** Labels of the single-cell serve path, indexed by VecOpKind. */
constexpr const char *kServeSpan[] = {"serve_write", "serve_read",
                                      "serve_cas"};
constexpr const char *kServeSite[] = {"rmem serve_write from node",
                                      "rmem serve_read from node",
                                      "rmem serve_cas from node"};
/** The request type a copy-stage NAK names, indexed by VecOpKind. */
constexpr MsgType kScalarType[] = {MsgType::kWriteBlock, MsgType::kReadReq,
                                   MsgType::kCasReq};

/** Stage-1 verdict: the validation's error, or a misaligned CAS word. */
util::ErrorCode
verdict(const util::Result<SegmentDescriptor *> &v, const SubOpKey &k)
{
    if (!v.ok()) {
        return v.status().code();
    }
    return k.kind == VecOpKind::kCas && k.offset % 4 != 0
               ? util::ErrorCode::kInvalidArgument
               : util::ErrorCode::kOk;
}

/** The translation + copy (or CAS execution) stage of a served op. */
struct SubOpStage
{
    sim::Duration cost;
    sim::CpuCategory category;
    /** What the stage touches, for the schedule explorer. */
    sim::DepHint hint;
};

SubOpStage
stageOf(const CostModel &costs, net::NodeId node, const SubOpKey &k)
{
    uint64_t segKey = (static_cast<uint64_t>(node) << 8) | k.descriptor;
    auto range = sim::DepHint::segRange(segKey, k.offset, k.offset + k.count);
    switch (k.kind) {
      case VecOpKind::kWrite:
        return {translateCost(costs, k.offset, k.count) +
                    costs.copyCost(k.count),
                sim::CpuCategory::kDataReceive, range};
      case VecOpKind::kRead:
        return {translateCost(costs, k.offset, k.count) +
                    costs.copyCost(k.count),
                sim::CpuCategory::kDataReply, range};
      case VecOpKind::kCas:
        break;
    }
    return {translateCost(costs, k.offset, 4) + costs.casExecCost,
            sim::CpuCategory::kDataReceive,
            sim::DepHint::syncWord(segKey, k.offset)};
}

/**
 * The notify policy, for both serve paths: does serving @p sub post a
 * notification on @p d's channel? A READ's notify bit asks for
 * reader-side notification (§3.1.1), so the exporter hears of a READ
 * only under the always-notify policy.
 */
bool
notifies(const SegmentDescriptor &d, const VectorSubOp &sub)
{
    bool asked = sub.notify && sub.kind != VecOpKind::kRead;
    return d.channel && (d.policy == NotifyPolicy::kAlways ||
                         (d.policy == NotifyPolicy::kConditional && asked));
}

/** The notification announcing @p sub, served for node @p src. */
Notification
noticeOf(net::NodeId src, const VectorSubOp &sub)
{
    static_assert(static_cast<int>(NotifyKind::kRead) ==
                      static_cast<int>(VecOpKind::kRead) &&
                  static_cast<int>(NotifyKind::kCas) ==
                      static_cast<int>(VecOpKind::kCas));
    return Notification{src, static_cast<NotifyKind>(sub.kind), sub.offset,
                        subOpBytes(sub), obs::TraceRecorder::currentOp()};
}

/** Per-entry-point text of a pending request (read, CAS, vector). */
struct PendingText
{
    const char *nak;
    const char *timeout;
    const char *depositSpan;
    const char *depositSite;
};

const PendingText &
textOf(bool vectored, VecOpKind kind)
{
    static constexpr PendingText kText[] = {
        {"remote rejected read", "remote read timed out", "deposit_read",
         "rmem deposit_read on node"},
        {"remote rejected CAS", "remote CAS timed out", "deposit_cas",
         "rmem deposit_cas on node"},
        {"remote rejected vectored op", "vectored op timed out",
         "deposit_vector", "rmem deposit_vector on node"},
    };
    return kText[vectored ? 2 : kind == VecOpKind::kRead ? 0 : 1];
}

} // namespace

RmemEngine::RmemEngine(mem::Node &node, const CostModel &costs)
    : node_(node), costs_(costs), wire_(node, costs),
      table_(node.cpu(), costs_)
{
    wire_.setRmemHandler(
        [this](net::NodeId src, Message &&msg) { onMessage(src, std::move(msg)); });
}

// ----------------------------------------------------------------------
// Export-side kernel calls
// ----------------------------------------------------------------------

util::Result<ImportedSegment>
RmemEngine::exportSegment(mem::Process &owner, mem::Vaddr base, uint32_t size,
                          Rights rights, NotifyPolicy policy,
                          const std::string &name)
{
    if (size == 0) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "zero-size segment");
    }
    if (!owner.space().isMapped(base, size)) {
        return util::Status(util::ErrorCode::kOutOfBounds,
                            "segment range not mapped");
    }
    util::Status pinned = owner.space().pin(base, size);
    if (!pinned.ok()) {
        return pinned;
    }
    auto slot = table_.allocate(owner.pid(), base, size, rights, policy, name);
    if (!slot.ok()) {
        owner.space().unpin(base, size);
        return slot.status();
    }
    // Kernel-call CPU cost: trap, table setup, page pinning.
    node_.cpu().post(costs_.trapOverhead + costs_.validateCost +
                         translateCost(costs_, 0, size),
                     sim::CpuCategory::kOther);
    const SegmentDescriptor *d = table_.get(slot.value());
    REMORA_ASSERT(d != nullptr);
    d->channel->setTraceNode(node_.name());
    d->channel->setHangLabel(node_.name() + ":" + name + " notify fd");
    if (RaceDetector::on()) {
        // Shadow the segment, attribute the channel's consumers to
        // this node, and let the detector see the exporter's own
        // loads/stores through the space's access observer. The
        // observer stays cheap when the detector is later disarmed.
        RaceDetector::instance().registerSegment(
            node_.id(), slot.value(), owner.pid(), base, size, name);
        d->channel->setRaceContext(node_.id());
        if (!owner.space().hasAccessObserver()) {
            mem::Node *nodePtr = &node_;
            mem::Pid pid = owner.pid();
            owner.space().setAccessObserver(
                [nodePtr, pid](bool write, mem::Vaddr va, size_t len) {
                    if (!RaceDetector::on()) {
                        return;
                    }
                    RaceDetector::instance().onLocalAccess(
                        nodePtr->id(), pid, write, va, len,
                        nodePtr->simulator().now());
                });
        }
    }
    return ImportedSegment{node_.id(), slot.value(), d->generation, size,
                           rights};
}

util::Status
RmemEngine::revokeSegment(SegmentId id)
{
    SegmentDescriptor *d = table_.get(id);
    if (d == nullptr) {
        return util::Status(util::ErrorCode::kBadDescriptor,
                            "revoke of invalid segment");
    }
    if (mem::Process *owner = ownerOf(*d)) {
        owner->space().unpin(d->base, d->size);
    }
    if (RaceDetector::on()) {
        RaceDetector::instance().unregisterSegment(node_.id(), id);
    }
    node_.cpu().post(costs_.trapOverhead + costs_.validateCost,
                     sim::CpuCategory::kOther);
    return table_.release(id);
}

util::Status
RmemEngine::setWriteInhibit(SegmentId id, bool inhibit)
{
    SegmentDescriptor *d = table_.get(id);
    if (d == nullptr) {
        return util::Status(util::ErrorCode::kBadDescriptor, "no segment");
    }
    d->writeInhibited = inhibit;
    return {};
}

NotificationChannel *
RmemEngine::channel(SegmentId id)
{
    SegmentDescriptor *d = table_.get(id);
    return d ? d->channel.get() : nullptr;
}

SegmentDescriptor *
RmemEngine::descriptor(SegmentId id)
{
    return table_.get(id);
}

util::Result<ImportedSegment>
RmemEngine::localHandle(SegmentId id) const
{
    const SegmentDescriptor *d = table_.get(id);
    if (d == nullptr) {
        return util::Status(util::ErrorCode::kBadDescriptor, "no segment");
    }
    return ImportedSegment{node_.id(), id, d->generation, d->size, d->rights};
}

// ----------------------------------------------------------------------
// Meta-instructions (initiator side)
// ----------------------------------------------------------------------

template <typename Args>
uint64_t
RmemEngine::beginOp(const char *name, obs::SpanId &issueSpan, Args &&args)
{
    if (!obs::TraceRecorder::on()) {
        return 0;
    }
    auto &rec = obs::TraceRecorder::instance();
    uint64_t opId = rec.newAsyncId();
    rec.asyncBegin(opId, node_.name(), "rmem", name, args());
    // The op is passed explicitly: the issuing coroutine resumes outside
    // any ambient scope.
    issueSpan = rec.beginSpanFor(opId, node_.name(), "rmem", "issue");
    return opId;
}

void
RmemEngine::endOp(uint64_t opId, const char *name, const util::Status &status)
{
    if (opId != 0) {
        obs::TraceRecorder::instance().asyncEnd(opId, node_.name(), "rmem",
                                                name, status.message());
    }
}

sim::Task<util::Status>
RmemEngine::write(ImportedSegment dst, uint32_t offset,
                  std::vector<uint8_t> data, bool notify)
{
    stats_.writesIssued.inc();
    node_.simulator().noteDigest("rmem.write", dst.node << 8 | dst.descriptor);
    util::Status admitted = checkImport(dst, VecOpKind::kWrite, offset,
                                        data.size());
    if (!admitted.ok()) {
        co_return admitted;
    }

    obs::SpanId issueSpan = obs::kNoSpan;
    uint64_t opId = beginOp("write", issueSpan, [&] {
        return "bytes=" + std::to_string(data.size()) + " dst=" +
               std::to_string(dst.node);
    });
    // Sender-side emulation: trap + rights verification.
    co_await node_.cpu().use(costs_.trapOverhead + costs_.validateCost,
                             sim::CpuCategory::kOther);
    obs::TraceRecorder::instance().endSpan(issueSpan);

    size_t pos = 0;
    do {
        size_t chunk = std::min(data.size() - pos, kBlockDataMax);
        WriteReq req;
        req.descriptor = dst.descriptor;
        req.generation = dst.generation;
        req.offset = offset + static_cast<uint32_t>(pos);
        req.notify = notify && (pos + chunk == data.size());
        req.data.assign(data.begin() + static_cast<ptrdiff_t>(pos),
                        data.begin() + static_cast<ptrdiff_t>(pos + chunk));
        auto accepted = wire_.send(dst.node, Message(std::move(req)),
                                   sim::CpuCategory::kDataReply, opId);
        pos += chunk;
        if (pos >= data.size()) {
            // Local completion: data accepted by the network.
            co_await accepted;
            break;
        }
    } while (true);
    endOp(opId, "write", {});
    co_return util::Status();
}

sim::Task<ReadOutcome>
RmemEngine::read(ImportedSegment src, uint32_t srcOff, SegmentId dstSeg,
                 uint32_t dstOff, uint32_t count, bool notify,
                 sim::Duration timeout)
{
    stats_.readsIssued.inc();
    node_.simulator().noteDigest("rmem.read", src.node << 8 | src.descriptor);
    util::Status admitted = checkImport(src, VecOpKind::kRead, srcOff, count);
    if (!admitted.ok()) {
        co_return ReadOutcome{admitted, {}};
    }
    SegmentDescriptor *dst = table_.get(dstSeg);
    if (dst == nullptr) {
        co_return ReadOutcome{util::Status(util::ErrorCode::kBadDescriptor,
                                           "bad local destination segment"),
                              {}};
    }
    if (static_cast<uint64_t>(dstOff) + count > dst->size) {
        co_return ReadOutcome{
            util::Status(util::ErrorCode::kOutOfBounds,
                         "destination outside local segment"),
            {}};
    }

    obs::SpanId issueSpan = obs::kNoSpan;
    uint64_t opId = beginOp("read", issueSpan, [&] {
        return "count=" + std::to_string(count) + " src=" +
               std::to_string(src.node);
    });
    co_await node_.cpu().use(costs_.trapOverhead + costs_.validateCost,
                             sim::CpuCategory::kOther);
    obs::TraceRecorder::instance().endSpan(issueSpan);

    ReadOutcome total{util::Status(), {}};
    mem::Pid dstPid = dst->ownerPid;
    mem::Vaddr dstBase = dst->base;

    uint32_t pos = 0;
    while (pos < count || (count == 0 && pos == 0)) {
        uint32_t chunk = static_cast<uint32_t>(
            std::min<uint64_t>(count - pos, kBlockDataMax));
        ReqId id = allocReqId();
        bool lastChunk = (pos + chunk >= count);
        auto fut = expect(id,
                          Deposit{VecOpKind::kRead, dstPid,
                                  dstBase + dstOff + pos,
                                  notify && lastChunk, dstSeg},
                          {}, timeout);

        ReadReq req;
        req.srcDescriptor = src.descriptor;
        req.generation = src.generation;
        req.srcOffset = srcOff + pos;
        req.dstDescriptor = dstSeg;
        req.dstOffset = dstOff + pos;
        req.count = static_cast<uint16_t>(chunk);
        req.reqId = id;
        req.notify = notify && lastChunk;
        wire_.send(src.node, Message(req), sim::CpuCategory::kDataReply,
                   opId);

        Reply part = co_await fut;
        if (!part.status.ok()) {
            endOp(opId, "read", part.status);
            co_return ReadOutcome{part.status, std::move(total.data)};
        }
        if (pos == 0 && lastChunk) {
            // A single-chunk READ hands its payload over whole.
            total.data = std::move(part.one.data);
        } else {
            total.data.reserve(count);
            total.data.insert(total.data.end(), part.one.data.begin(),
                              part.one.data.end());
        }
        pos += chunk;
        if (count == 0) {
            break;
        }
    }
    endOp(opId, "read", {});
    co_return total;
}

sim::Task<CasOutcome>
RmemEngine::cas(ImportedSegment dst, uint32_t offset, uint32_t oldValue,
                uint32_t newValue, SegmentId resultSeg, uint32_t resultOff,
                sim::Duration timeout)
{
    stats_.casIssued.inc();
    node_.simulator().noteDigest("rmem.cas", dst.node << 8 | dst.descriptor);
    util::Status admitted = checkImport(dst, VecOpKind::kCas, offset, 4);
    if (!admitted.ok()) {
        co_return CasOutcome{admitted, false, 0};
    }
    SegmentDescriptor *result = table_.get(resultSeg);
    if (result == nullptr || resultOff % 4 != 0 ||
        static_cast<uint64_t>(resultOff) + 4 > result->size) {
        co_return CasOutcome{util::Status(util::ErrorCode::kInvalidArgument,
                                          "CAS result location invalid"),
                             false, 0};
    }

    obs::SpanId issueSpan = obs::kNoSpan;
    uint64_t opId = beginOp("cas", issueSpan, [&] {
        return "dst=" + std::to_string(dst.node);
    });
    co_await node_.cpu().use(costs_.trapOverhead + costs_.validateCost,
                             sim::CpuCategory::kOther);
    obs::TraceRecorder::instance().endSpan(issueSpan);

    ReqId id = allocReqId();
    auto fut = expect(id,
                      Deposit{VecOpKind::kCas, result->ownerPid,
                              result->base + resultOff, false, resultSeg},
                      {}, timeout);

    CasReq req;
    req.descriptor = dst.descriptor;
    req.generation = dst.generation;
    req.offset = offset;
    req.oldValue = oldValue;
    req.newValue = newValue;
    req.resultDescriptor = resultSeg;
    req.resultOffset = resultOff;
    req.reqId = id;
    wire_.send(dst.node, Message(req), sim::CpuCategory::kDataReply, opId);

    Reply reply = co_await fut;
    CasOutcome out{std::move(reply.status), reply.one.success,
                   reply.one.observed};
    endOp(opId, "cas", out.status);
    co_return out;
}

// ----------------------------------------------------------------------
// Vectored meta-instructions (initiator side)
// ----------------------------------------------------------------------

sim::Task<VectorOutcome>
RmemEngine::issueVector(VectorBatch batch, sim::Duration timeout)
{
    size_t n = batch.ops.size();
    if (n == 0) {
        co_return VectorOutcome{util::Status(), {}};
    }
    stats_.vectorsIssued.inc();
    stats_.vectorSubOps.inc(n);
    node_.simulator().noteDigest(
        "rmem.vector", (static_cast<uint64_t>(batch.target) << 8) | n);
    if (n > kMaxVectorOps || batch.local.size() != n) {
        co_return VectorOutcome{
            util::Status(util::ErrorCode::kInvalidArgument,
                         "malformed vector batch"),
            {}};
    }

    VectorReq req;
    req.ops = std::move(batch.ops);
    if (encodedVectorSize(req) > kBlockDataMax ||
        encodedVectorRespSize(req) > kBlockDataMax) {
        co_return VectorOutcome{
            util::Status(util::ErrorCode::kResource,
                         "vector batch exceeds frame budget"),
            {}};
    }

    // Resolve local deposit coordinates up front, like scalar read():
    // the destination process/address is fixed at issue time.
    bool wantResponse = false;
    std::vector<Deposit> deposits(n);
    for (size_t i = 0; i < n; ++i) {
        const VectorSubOp &sub = req.ops[i];
        if (sub.kind == VecOpKind::kWrite) {
            continue;
        }
        wantResponse = true;
        const VectorLocalDeposit &loc = batch.local[i];
        SegmentDescriptor *dst = table_.get(loc.dstSeg);
        uint32_t bytes = sub.kind == VecOpKind::kRead ? sub.count : 4;
        if (dst == nullptr ||
            static_cast<uint64_t>(loc.dstOff) + bytes > dst->size ||
            (sub.kind == VecOpKind::kCas && loc.dstOff % 4 != 0)) {
            co_return VectorOutcome{
                util::Status(util::ErrorCode::kInvalidArgument,
                             "vector deposit location invalid"),
                {}};
        }
        deposits[i] = Deposit{sub.kind, dst->ownerPid, dst->base + loc.dstOff,
                              loc.notify, loc.dstSeg};
    }

    obs::SpanId issueSpan = obs::kNoSpan;
    uint64_t opId = beginOp("vector", issueSpan, [&] {
        return "ops=" + std::to_string(n) + " dst=" +
               std::to_string(batch.target);
    });
    // ONE trap + header + validation for the batch; every sub-op after
    // the first pays only its marginal issue cost. This is the entire
    // amortization the vectored path exists for.
    co_await node_.cpu().use(costs_.trapOverhead + costs_.validateCost +
                                 static_cast<sim::Duration>(n) *
                                     costs_.vectorSubOpIssueCost,
                             sim::CpuCategory::kOther);
    obs::TraceRecorder::instance().endSpan(issueSpan);

    if (!wantResponse) {
        // Pure-write batch: local completion when the frame is accepted
        // by the network; target-side failures NAK like scalar writes.
        req.reqId = 0;
        auto accepted = wire_.send(batch.target, Message(std::move(req)),
                                   sim::CpuCategory::kDataReply, opId);
        co_await accepted;
        endOp(opId, "vector", {});
        co_return VectorOutcome{util::Status(), {}};
    }

    ReqId id = allocReqId();
    req.reqId = id;
    auto fut = expect(id, {}, std::move(deposits), timeout);

    wire_.send(batch.target, Message(std::move(req)),
               sim::CpuCategory::kDataReply, opId);

    Reply reply = co_await fut;
    VectorOutcome out{std::move(reply.status), std::move(reply.results)};
    endOp(opId, "vector", out.status);
    co_return out;
}

sim::Task<util::Status>
RmemEngine::writev(std::vector<BatchBuilder::Write> ops)
{
    BatchBuilder b(*this);
    for (BatchBuilder::Write &op : ops) {
        util::Status s = b.addWrite(std::move(op));
        if (!s.ok()) {
            co_return s;
        }
    }
    VectorOutcome out = co_await b.issue();
    co_return out.status;
}

sim::Task<VectorOutcome>
RmemEngine::readv(std::vector<BatchBuilder::Read> ops, sim::Duration timeout)
{
    BatchBuilder b(*this);
    for (const BatchBuilder::Read &op : ops) {
        util::Status s = b.addRead(op);
        if (!s.ok()) {
            co_return VectorOutcome{s, {}};
        }
    }
    VectorOutcome out = co_await b.issue(timeout);
    co_return out;
}

sim::Task<VectorOutcome>
RmemEngine::casv(std::vector<BatchBuilder::Cas> ops, sim::Duration timeout)
{
    BatchBuilder b(*this);
    for (const BatchBuilder::Cas &op : ops) {
        util::Status s = b.addCas(op);
        if (!s.ok()) {
            co_return VectorOutcome{s, {}};
        }
    }
    VectorOutcome out = co_await b.issue(timeout);
    co_return out;
}

// ----------------------------------------------------------------------
// Serving side
// ----------------------------------------------------------------------

void
RmemEngine::onMessage(net::NodeId src, Message &&msg)
{
    struct Visitor
    {
        RmemEngine *eng;
        net::NodeId src;
        void operator()(WriteReq &m) { eng->serveScalar(src, std::move(m)); }
        void operator()(ReadReq &m) { eng->serveScalar(src, std::move(m)); }
        void operator()(CasReq &m) { eng->serveScalar(src, std::move(m)); }
        void operator()(VectorReq &m) { eng->serveVector(src, std::move(m)); }
        void
        operator()(ReadResp &m)
        {
            VectorSubResult r{util::ErrorCode::kOk, VecOpKind::kRead,
                              std::move(m.data)};
            eng->deposit(src, m.reqId, Reply{{}, std::move(r), {}});
        }
        void
        operator()(CasResp &m)
        {
            VectorSubResult r{util::ErrorCode::kOk, VecOpKind::kCas, {},
                              m.success, m.observed};
            eng->deposit(src, m.reqId, Reply{{}, std::move(r), {}});
        }
        void
        operator()(VectorResp &m)
        {
            eng->deposit(src, m.reqId, Reply{{}, {}, std::move(m.results)});
        }
        void operator()(Nak &m) { eng->handleNak(src, m); }
        void operator()(RpcMsg &) {
            REMORA_PANIC("RPC message routed to rmem engine");
        }
        void operator()(SeqMsg &) {
            REMORA_PANIC("reliability envelope leaked past the wire");
        }
        void operator()(AckMsg &) {
            REMORA_PANIC("reliability ack leaked past the wire");
        }
    };
    std::visit(Visitor{this, src}, msg);
}

template <typename Req>
void
RmemEngine::serveScalar(net::NodeId src, Req &&req)
{
    stats_.requestsServed.inc();
    SubOpKey key = keyOf(req);
    // Span from dispatch to the access's completion (or the NAK).
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        std::string args = "from=" + std::to_string(src);
        if (key.kind != VecOpKind::kCas) {
            args = (key.kind == VecOpKind::kWrite ? "bytes=" : "count=") +
                   std::to_string(key.count) + " " + args;
        }
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", kServeSpan[static_cast<size_t>(key.kind)],
            args);
    }
    // The dispatch runs under route()'s OpScope; deferred stages must
    // carry the op themselves and re-establish it, so the NAK/notify/
    // reply sends they make still join the initiator's DAG.
    uint64_t op = obs::TraceRecorder::currentOp();
    // The whole serve chain operates on this byte range (or sync word);
    // the copy stage inherits the hint through its event.
    sim::Simulator::HintScope hintScope(node_.simulator(),
                                        stageOf(costs_, node_.id(), key).hint);
    // Stage 1: demux + validation. A CAS executes here too: one stage.
    sim::Duration cost = costs_.msgHandleCost + costs_.validateCost;
    if (key.kind == VecOpKind::kCas) {
        cost += costs_.casExecCost;
    }
    auto validate = [this, src, span, op, req = std::move(req)]() mutable {
        obs::OpScope opScope(op);
        SubOpKey k = keyOf(req);
        util::ErrorCode err = verdict(
            table_.validate(k.descriptor, k.generation, k.offset, k.count,
                            vecOpRights(k.kind)),
            k);
        if (err != util::ErrorCode::kOk) {
            bool small = k.kind == VecOpKind::kWrite &&
                         k.count <= kSmallWriteMax;
            sendNak(src, k.reqId, err,
                    small ? MsgType::kWriteSmall
                          : kScalarType[static_cast<size_t>(k.kind)]);
            obs::TraceRecorder::instance().endSpan(span);
            return;
        }
        if (k.kind == VecOpKind::kCas) {
            applyScalar(src, span, k.reqId, asSubOp(std::move(req)));
            return;
        }
        // Stage 2: translation + copy into (or out of) the owner's space.
        SubOpStage copy = stageOf(costs_, node_.id(), k);
        auto apply = [this, src, span, op, req = std::move(req)]() mutable {
            obs::OpScope copyScope(op);
            ReqId reqId = keyOf(req).reqId;
            applyScalar(src, span, reqId, asSubOp(std::move(req)));
        };
        static_assert(sim::Callback::kFitsInline<decltype(apply)>);
        node_.cpu().post(copy.cost, copy.category, std::move(apply));
    };
    static_assert(sim::Callback::kFitsInline<decltype(validate)>);
    node_.cpu().post(cost, sim::CpuCategory::kDataReceive,
                     std::move(validate));
}

void
RmemEngine::applyScalar(net::NodeId src, obs::SpanId span, ReqId reqId,
                        VectorSubOp &&sub)
{
    VectorSubResult res;
    auto kind = static_cast<size_t>(sub.kind);
    applySubOp(src, kServeSite[kind], sub, res, [&](SegmentDescriptor *d) {
        if (d == nullptr) {
            sendNak(src, reqId, res.status, kScalarType[kind]);
            return;
        }
        if (sub.kind == VecOpKind::kRead) {
            wire_.send(src,
                       Message(ReadResp{reqId, util::ErrorCode::kOk,
                                        std::move(res.data)}),
                       sim::CpuCategory::kDataReply);
        } else if (sub.kind == VecOpKind::kCas) {
            wire_.send(src, Message(CasResp{reqId, res.success, res.observed}),
                       sim::CpuCategory::kDataReply);
        }
        if (notifies(*d, sub)) {
            stats_.notificationsPosted.inc();
            if (obs::TraceRecorder::on()) {
                obs::TraceRecorder::instance().instant(
                    node_.name(), "rmem", "notify",
                    "offset=" + std::to_string(sub.offset) + " len=" +
                        std::to_string(subOpBytes(sub)));
            }
            d->channel->post(noticeOf(src, sub));
        }
    });
    obs::TraceRecorder::instance().endSpan(span);
}

void
RmemEngine::serveVector(net::NodeId src, VectorReq &&req)
{
    size_t n = req.ops.size();
    stats_.requestsServed.inc();
    stats_.vectorServed.inc();
    stats_.vectorSubOpsServed.inc(n);
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", "serve_vector",
            "ops=" + std::to_string(n) + " from=" + std::to_string(src));
    }
    auto st = std::make_shared<VectorServeState>();
    st->src = src;
    st->reqId = req.reqId;
    st->wantResponse = (req.reqId != 0);
    st->op = obs::TraceRecorder::currentOp();
    st->span = span;
    st->results.resize(n);

    // Stage 1: ONE demux charge for the frame, one validateCost per
    // *distinct* (slot, generation, rights) key — the validation-cache
    // amortization — plus the per-sub-op marginal serve cost.
    sim::Duration stage1Cost =
        costs_.msgHandleCost +
        static_cast<sim::Duration>(distinctValidationKeys(req.ops)) *
            costs_.validateCost +
        static_cast<sim::Duration>(n) * costs_.vectorSubOpServeCost;
    st->ops = std::move(req.ops);
    node_.cpu().post(stage1Cost, sim::CpuCategory::kDataReceive,
                     [this, st] {
                         obs::OpScope opScope(st->op);
                         executeVector(st);
                     });
}

void
RmemEngine::executeVector(const std::shared_ptr<VectorServeState> &st)
{
    size_t n = st->ops.size();
    ValidationCache cache(table_);
    for (size_t i = 0; i < n; ++i) {
        SubOpKey k = keyOf(st->ops[i]);
        VectorSubResult &res = st->results[i];
        res.kind = k.kind;
        res.status = verdict(cache.validate(k.descriptor, k.generation,
                                            k.offset, k.count,
                                            vecOpRights(k.kind)),
                             k);
        if (res.status == util::ErrorCode::kOk) {
            ++st->remaining;
        }
    }
    stats_.vectorValidateHits.inc(cache.hits());
    if (st->remaining == 0) {
        // Nothing executable. Response-carrying batches report per-sub-op
        // status; a pure-write batch NAKs once like a scalar bad write.
        if (st->wantResponse) {
            finishVector(st);
        } else {
            sendNak(st->src, 0, st->results.empty()
                                    ? util::ErrorCode::kInvalidArgument
                                    : st->results.front().status,
                    MsgType::kVectorOp);
            obs::TraceRecorder::instance().endSpan(st->span);
        }
        return;
    }
    // Stage 2: one deferred event per valid sub-op, each carrying its
    // own DepHint so the explorer sees sub-op granularity.
    for (size_t i = 0; i < n; ++i) {
        if (st->results[i].status != util::ErrorCode::kOk) {
            continue;
        }
        SubOpStage stage = stageOf(costs_, node_.id(), keyOf(st->ops[i]));
        sim::Simulator::HintScope hint(node_.simulator(), stage.hint);
        auto apply = [this, st, i] {
            obs::OpScope opScope(st->op);
            VectorSubOp &sub = st->ops[i];
            applySubOp(st->src, "rmem serve_vector sub-op from node", sub,
                       st->results[i], [&](SegmentDescriptor *d) {
                           if (d == nullptr) {
                               return;
                           }
                           if (notifies(*d, sub)) {
                               st->notify[sub.descriptor].push_back(
                                   noticeOf(st->src, sub));
                           }
                           if (obs::TraceRecorder::on()) {
                               obs::TraceRecorder::instance().instant(
                                   node_.name(), "rmem", "vector_sub",
                                   "idx=" + std::to_string(i) + " kind=" +
                                       std::to_string(
                                           static_cast<int>(sub.kind)));
                           }
                       });
            if (--st->remaining == 0) {
                finishVector(st);
            }
        };
        static_assert(sim::Callback::kFitsInline<decltype(apply)>);
        node_.cpu().post(stage.cost, stage.category, std::move(apply));
    }
}

void
RmemEngine::finishVector(const std::shared_ptr<VectorServeState> &st)
{
    // Doorbell coalescing: all notify-marked sub-ops that landed in the
    // same segment's channel post as ONE batch — one dispatch charge,
    // one release edge — instead of one doorbell per sub-op. Channels
    // are re-resolved by slot here so a mid-batch revoke cannot leave a
    // dangling channel pointer.
    if (!st->notify.empty()) {
        RaceDetector::ScopedActor raceScope(
            st->src, "rmem vector notify from node", st->src);
        for (auto &[segId, recs] : st->notify) {
            SegmentDescriptor *d = table_.get(segId);
            if (d == nullptr || !d->channel) {
                continue;
            }
            stats_.notificationsPosted.inc(recs.size());
            stats_.vectorDoorbells.inc();
            if (obs::TraceRecorder::on()) {
                obs::TraceRecorder::instance().instant(
                    node_.name(), "rmem", "notify_batch",
                    "records=" + std::to_string(recs.size()));
            }
            d->channel->postBatch(recs);
        }
        st->notify.clear();
    }
    if (st->wantResponse) {
        obs::OpScope opScope(st->op);
        VectorResp resp;
        resp.reqId = st->reqId;
        resp.results = std::move(st->results);
        wire_.send(st->src, Message(std::move(resp)),
                   sim::CpuCategory::kDataReply);
    }
    obs::TraceRecorder::instance().endSpan(st->span);
}

template <typename Then>
void
RmemEngine::applySubOp(net::NodeId src, const char *raceSite,
                       VectorSubOp &sub, VectorSubResult &res, Then &&then)
{
    SubOpKey k = keyOf(sub);
    auto v = table_.validate(k.descriptor, k.generation, k.offset, k.count,
                             vecOpRights(k.kind));
    SegmentDescriptor *d = v.ok() ? v.value() : nullptr;
    mem::Process *owner = d != nullptr ? ownerOf(*d) : nullptr;
    if (owner == nullptr) {
        res.status = v.ok() ? util::ErrorCode::kBadDescriptor
                            : v.status().code();
        then(nullptr);
        return;
    }
    // The applied access belongs to the *initiating* node's
    // happens-before timeline, as does any notify release it makes.
    RaceDetector::ScopedActor raceScope(src, raceSite, src);
    mem::AddressSpace &space = owner->space();
    mem::Vaddr va = d->base + sub.offset;
    switch (sub.kind) {
      case VecOpKind::kWrite:
        REMORA_ASSERT(space.write(va, sub.data).ok());
        break;
      case VecOpKind::kRead:
        res.data.resize(sub.count);
        REMORA_ASSERT(space.read(va, res.data).ok());
        break;
      case VecOpKind::kCas: {
        // A CAS target is by definition a synchronization word: the
        // read acquires its clock and a successful swap releases, so
        // CAS-success pairs chain happens-before.
        if (RaceDetector::on()) {
            RaceDetector::instance().markSyncWord(node_.id(), sub.descriptor,
                                                  sub.offset);
        }
        auto word = space.readWord(va);
        REMORA_ASSERT(word.ok());
        res.observed = word.value();
        res.success = (word.value() == sub.oldValue);
        if (res.success) {
            REMORA_ASSERT(space.writeWord(va, sub.newValue).ok());
        }
        break;
      }
    }
    then(d);
}

// ----------------------------------------------------------------------
// Replies, NAKs and timeouts (initiator side)
// ----------------------------------------------------------------------

void
RmemEngine::deposit(net::NodeId src, ReqId reqId, Reply &&reply)
{
    auto it = pending_.find(reqId);
    if (it == pending_.end() || it->second.reply) {
        return; // timed out, duplicate, or already landing; drop silently
    }
    Pending &pending = it->second;
    if (pending.timeoutEvent != 0) {
        node_.simulator().cancel(pending.timeoutEvent);
    }
    bool vectored = !pending.deposits.empty();
    if (vectored && reply.results.size() != pending.deposits.size()) {
        sim::Promise<Reply> done = std::move(pending.done);
        pending_.erase(it);
        done.set(Reply{util::Status(util::ErrorCode::kMalformed,
                                    "vector response arity mismatch"),
                       {},
                       std::move(reply.results)});
        return;
    }
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        std::string args =
            vectored ? "results=" + std::to_string(reply.results.size())
            : pending.one.kind == VecOpKind::kRead
                ? "bytes=" + std::to_string(reply.one.data.size())
                : (reply.one.success ? "success" : "failure");
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem",
            textOf(vectored, pending.one.kind).depositSpan, args);
    }
    uint64_t op = obs::TraceRecorder::currentOp();
    // ONE deposit event per reply: demux once, then copy each landed
    // READ payload / CAS result word into place.
    sim::Duration cost = costs_.msgHandleCost;
    for (size_t i = 0; i < reply.landed().size(); ++i) {
        const VectorSubResult &r = reply.landed()[i];
        if (pending.landings()[i].kind != VecOpKind::kWrite &&
            r.status == util::ErrorCode::kOk) {
            cost += r.kind == VecOpKind::kRead ? costs_.copyCost(r.data.size())
                                               : costs_.copyWordCost;
        }
    }
    // The reply waits in the table for its deposit event, so the event
    // captures no payload and a late NAK or duplicate reply is dropped.
    pending.reply = std::move(reply);
    auto land = [this, src, span, op, reqId] {
        obs::OpScope opScope(op);
        auto entry = pending_.extract(reqId);
        Pending &p = entry.mapped();
        Reply &landed = *p.reply;
        bool batch = !p.deposits.empty();
        RaceDetector::ScopedActor raceScope(
            node_.id(), textOf(batch, p.one.kind).depositSite, node_.id());
        // Reader-side notifications coalesce per destination segment,
        // exactly like the serving side's doorbells.
        std::map<SegmentId, std::vector<Notification>> notify;
        for (size_t i = 0; i < landed.landed().size(); ++i) {
            const Deposit &dep = p.landings()[i];
            const VectorSubResult &r = landed.landed()[i];
            mem::Process *proc = dep.kind == VecOpKind::kWrite ||
                                         r.status != util::ErrorCode::kOk
                                     ? nullptr
                                     : node_.findProcess(dep.pid);
            if (proc == nullptr) {
                continue;
            }
            if (r.kind == VecOpKind::kRead) {
                REMORA_ASSERT(proc->space().write(dep.va, r.data).ok());
                if (dep.notify) {
                    notify[dep.dstSeg].push_back(
                        Notification{src, NotifyKind::kRead, 0,
                                     static_cast<uint32_t>(r.data.size()), op});
                }
            } else if (r.kind == VecOpKind::kCas) {
                REMORA_ASSERT(
                    proc->space().writeWord(dep.va, r.success ? 1u : 0u).ok());
            }
        }
        for (auto &[segId, recs] : notify) {
            if (NotificationChannel *ch = channel(segId)) {
                stats_.notificationsPosted.inc(recs.size());
                if (batch) {
                    stats_.vectorDoorbells.inc();
                }
                ch->postBatch(recs);
            }
        }
        obs::TraceRecorder::instance().endSpan(span);
        p.done.set(std::move(landed));
    };
    static_assert(sim::Callback::kFitsInline<decltype(land)>);
    node_.cpu().post(cost, sim::CpuCategory::kDataReceive, std::move(land));
}

void
RmemEngine::handleNak(net::NodeId src, const Nak &nak)
{
    stats_.naksReceived.inc();
    if (obs::TraceRecorder::on()) {
        obs::TraceRecorder::instance().instant(
            node_.name(), "rmem", "nak_rx",
            std::string(util::errorCodeName(nak.error)) + " from=" +
                std::to_string(src));
    }
    if (fail(nak.reqId, nak.error, false)) {
        return;
    }
    // NAK for a write or an already-resolved request: counted above.
    REMORA_LOG(kDebug, "rmem",
               node_.name() << ": NAK " << util::errorCodeName(nak.error));
}

sim::Future<RmemEngine::Reply>
RmemEngine::expect(ReqId id, Deposit one, std::vector<Deposit> deposits,
                   sim::Duration timeout)
{
    auto [it, inserted] = pending_.try_emplace(
        id, Pending{one, std::move(deposits),
                    sim::Promise<Reply>(node_.simulator()), 0});
    REMORA_ASSERT(inserted);
    if (timeout > 0) {
        it->second.timeoutEvent = node_.simulator().schedule(
            timeout, [this, id] { fail(id, util::ErrorCode::kTimeout, true); });
    }
    return it->second.done.future();
}

bool
RmemEngine::fail(ReqId id, util::ErrorCode code, bool timedOut)
{
    auto it = pending_.find(id);
    if (it == pending_.end() || it->second.reply) {
        return false; // resolved, or its reply is being deposited
    }
    Pending p = std::move(it->second);
    pending_.erase(it);
    const PendingText &text = textOf(!p.deposits.empty(), p.one.kind);
    if (timedOut) {
        stats_.timeouts.inc();
    } else if (p.timeoutEvent != 0) {
        node_.simulator().cancel(p.timeoutEvent);
    }
    p.done.set(
        Reply{util::Status(code, timedOut ? text.timeout : text.nak), {}, {}});
    return true;
}

void
RmemEngine::sendNak(net::NodeId dst, ReqId reqId, util::ErrorCode error,
                    MsgType originalType)
{
    stats_.naksSent.inc();
    if (obs::TraceRecorder::on()) {
        obs::TraceRecorder::instance().instant(
            node_.name(), "rmem", "nak_tx",
            std::string(util::errorCodeName(error)) + " dst=" +
                std::to_string(dst));
    }
    Nak nak;
    nak.reqId = reqId;
    nak.error = error;
    nak.originalType = originalType;
    wire_.send(dst, Message(nak), sim::CpuCategory::kDataReply);
}

ReqId
RmemEngine::allocReqId()
{
    for (;;) {
        ReqId id = nextReqId_++;
        // Zero is reserved for id-less NAKs.
        if (id != 0 && pending_.find(id) == pending_.end()) {
            return id;
        }
    }
}

mem::Process *
RmemEngine::ownerOf(const SegmentDescriptor &d)
{
    return node_.findProcess(d.ownerPid);
}

void
RmemEngine::registerStats(obs::MetricRegistry &reg,
                          const std::string &prefix) const
{
    reg.add(prefix + ".writes_issued", stats_.writesIssued);
    reg.add(prefix + ".reads_issued", stats_.readsIssued);
    reg.add(prefix + ".cas_issued", stats_.casIssued);
    reg.add(prefix + ".requests_served", stats_.requestsServed);
    reg.add(prefix + ".naks_sent", stats_.naksSent);
    reg.add(prefix + ".naks_received", stats_.naksReceived);
    reg.add(prefix + ".notifications_posted", stats_.notificationsPosted);
    reg.add(prefix + ".timeouts", stats_.timeouts);
    reg.add(prefix + ".vector.issued", stats_.vectorsIssued);
    reg.add(prefix + ".vector.sub_ops", stats_.vectorSubOps);
    reg.add(prefix + ".vector.served", stats_.vectorServed);
    reg.add(prefix + ".vector.sub_ops_served", stats_.vectorSubOpsServed);
    reg.add(prefix + ".vector.doorbells", stats_.vectorDoorbells);
    reg.add(prefix + ".vector.validate_hits", stats_.vectorValidateHits);
    wire_.registerStats(reg, prefix + ".wire");
}

} // namespace remora::rmem
