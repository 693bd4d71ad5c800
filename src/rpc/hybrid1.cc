#include "rpc/hybrid1.h"

#include <optional>

#include "mem/spin_wait.h"
#include "obs/trace.h"
#include "rmem/race_detector.h"
#include "util/bytes.h"
#include "util/panic.h"

namespace remora::rpc {

namespace {

/** A request record's header; the arguments follow it. */
struct RequestHeader
{
    uint32_t seq = 0;
    uint32_t argLen = 0;
    /** The client's reply segment. */
    rmem::ImportedSegment reply;
};

template <typename Io, util::MaybeConst<RequestHeader> T>
void
layout(Io &io, T &hdr)
{
    io.u32(hdr.seq);
    io.u32(hdr.argLen);
    layout(io, hdr.reply);
}

/** Encoded bytes of a RequestHeader. */
constexpr uint32_t kReqHeader = 16;

/** A reply record's header; the results follow it. */
struct ReplyHeader
{
    uint32_t seq = 0;
    uint32_t status = 0;
    uint32_t len = 0;
};

template <typename Io, util::MaybeConst<ReplyHeader> T>
void
layout(Io &io, T &hdr)
{
    io.u32(hdr.seq);
    io.u32(hdr.status);
    io.u32(hdr.len);
}

/** Encoded bytes of a ReplyHeader. */
constexpr uint32_t kRespHeader = 12;

} // namespace

// ----------------------------------------------------------------------
// Server
// ----------------------------------------------------------------------

Hybrid1Server::Hybrid1Server(rmem::RmemEngine &engine,
                             mem::Process &serverProcess,
                             const Hybrid1Params &params)
    : engine_(engine), process_(serverProcess), params_(params)
{
    uint32_t segBytes = kHybrid1SlotBytes * params_.slots;
    segBase_ = process_.space().allocRegion(segBytes);
    auto exported = engine_.exportSegment(
        process_, segBase_, segBytes,
        rmem::Rights::kWrite | rmem::Rights::kRead,
        rmem::NotifyPolicy::kConditional, "hybrid1.requests");
    if (!exported.ok()) {
        REMORA_FATAL("hybrid1: cannot export request segment: " +
                     exported.status().toString());
    }
    handle_ = exported.value();
    segId_ = handle_.descriptor;
}

uint32_t
Hybrid1Server::allocSlot()
{
    if (nextSlot_ >= params_.slots) {
        REMORA_FATAL("hybrid1: out of client slots");
    }
    return nextSlot_++;
}

void
Hybrid1Server::start()
{
    REMORA_ASSERT(!started_);
    REMORA_ASSERT(proc_ != nullptr);
    started_ = true;
    serveLoop().detach();
}

sim::Task<void>
Hybrid1Server::serveLoop()
{
    rmem::NotificationChannel *ch = engine_.channel(segId_);
    REMORA_ASSERT(ch != nullptr);
    // The loop parks here forever between requests by design; tell the
    // wait graph so quiescence reporting doesn't flag it as blocked.
    ch->markDaemon();
    for (;;) {
        // Control transfer: the blocked server thread is woken for each
        // notified request (the cost HY pays and DX avoids).
        rmem::Notification n = co_await ch->next();
        uint32_t slot = n.offset / kHybrid1SlotBytes;
        if (slot >= params_.slots) {
            continue; // stray write outside any slot
        }
        co_await serveOne(n.srcNode, slot, n.traceOp);
    }
}

sim::Task<void>
Hybrid1Server::serveOne(net::NodeId src, uint32_t slot, uint64_t traceOp)
{
    // Explicit span: the coroutine suspends across the procedure body.
    obs::SpanId span =
        obs::beginSpan(traceOp, engine_.node().name(), "rpc", "serve_one",
                       obs::kv("slot", slot), obs::kv("from", src));
    auto &cpu = engine_.node().cpu();
    mem::Vaddr slotVa = segBase_ + slot * kHybrid1SlotBytes;

    // Parse the request record out of the segment memory.
    std::vector<uint8_t> header(kReqHeader);
    util::Status rs = process_.space().read(slotVa, header);
    REMORA_ASSERT(rs.ok());
    util::ByteReader r(header);
    auto req = util::get<RequestHeader>(r);

    if (kReqHeader + req.argLen > kHybrid1SlotBytes) {
        obs::endSpan(span);
        co_return; // malformed request; nothing sane to reply to
    }
    std::vector<uint8_t> args(req.argLen);
    rs = process_.space().read(slotVa + kReqHeader, args);
    REMORA_ASSERT(rs.ok());

    // Procedure invocation overhead (stub dispatch).
    co_await cpu.use(engine_.costs().copyCost(kReqHeader + req.argLen) +
                         sim::usec(25),
                     sim::CpuCategory::kProcInvoke);

    std::vector<uint8_t> results = co_await proc_(src, std::move(args));
    ++served_;

    // Return write(s): pure data transfer back to the client's reply
    // segment; the client spin-waits, so no notify bit.
    rmem::ImportedSegment reply = req.reply;
    reply.node = src;
    reply.rights = rmem::Rights::kWrite;

    util::ByteWriter w(kRespHeader);
    util::put(w, ReplyHeader{req.seq, 0 /* ok */,
                             static_cast<uint32_t>(results.size())});
    // Scatter the return as ONE vectored WRITE: the result bytes land
    // at their final offset and the header lands at 0, in that order —
    // the serving CPU's FIFO keeps the seq word (the reply's release
    // point) last, so the client's spin-read never acquires a header
    // over missing result bytes. No marshal into a contiguous staging
    // buffer, and both stores ride one frame and one server trap.
    std::vector<rmem::BatchBuilder::Write> subs;
    if (!results.empty()) {
        subs.push_back(rmem::BatchBuilder::Write{
            reply, kRespHeader, std::move(results), false});
    }
    subs.push_back(rmem::BatchBuilder::Write{reply, 0, w.take(), false});
    // engine_.writev starts eagerly, so its asyncBegin runs while the
    // scope is live and records this request's op as its parent; the
    // scope is dropped before suspending on the result.
    std::optional<obs::OpScope> parentScope;
    parentScope.emplace(traceOp);
    auto writeTask = engine_.writev(std::move(subs));
    parentScope.reset();
    util::Status ws = co_await writeTask;
    REMORA_ASSERT(ws.ok());
    obs::endSpan(span);
}

// ----------------------------------------------------------------------
// Client
// ----------------------------------------------------------------------

Hybrid1Client::Hybrid1Client(rmem::RmemEngine &engine,
                             mem::Process &clientProcess,
                             const rmem::ImportedSegment &server,
                             uint32_t slot, const Hybrid1Params &params)
    : engine_(engine), process_(clientProcess), server_(server), slot_(slot),
      params_(params)
{
    uint32_t replyBytes = kHybrid1SlotBytes;
    replyBase_ = process_.space().allocRegion(replyBytes);
    auto exported = engine_.exportSegment(
        process_, replyBase_, replyBytes, rmem::Rights::kWrite,
        rmem::NotifyPolicy::kNever, "hybrid1.reply");
    if (!exported.ok()) {
        REMORA_FATAL("hybrid1: cannot export reply segment: " +
                     exported.status().toString());
    }
    replyHandle_ = exported.value();
    replySegId_ = replyHandle_.descriptor;
    if (rmem::RaceDetector::on()) {
        // The reply sequence word is the synchronization point of the
        // Hybrid-1 reply path: the server's single reply write covers
        // it last-in-buffer (release), and the client's spin-read of
        // it acquires — ordering the header/result bytes it guards.
        rmem::RaceDetector::instance().markSyncWord(replyHandle_.node,
                                                    replyHandle_.descriptor,
                                                    0);
    }
}

sim::Task<util::Result<std::vector<uint8_t>>>
Hybrid1Client::call(std::vector<uint8_t> args, sim::Duration timeout)
{
    REMORA_ASSERT(kReqHeader + args.size() <= kHybrid1SlotBytes);
    uint32_t seq = ++seq_;
    // Async op for the whole call (request write, server work, reply
    // write, spin-wait): runs eagerly here, so the caller's ambient
    // scope becomes the parent.
    uint64_t opId = obs::asyncBegin(engine_.node().name(), "rpc", "hy_call",
                                    obs::kv("seq", seq));
    obs::SpanId span =
        obs::beginSpan(opId, engine_.node().name(), "rpc", "call",
                       obs::kv("args", args.size()), obs::kv("seq", seq));

    util::ByteWriter w(kReqHeader + args.size());
    util::put(w, RequestHeader{seq, static_cast<uint32_t>(args.size()),
                               replyHandle_});
    w.putBytes(args);

    // The single write request, with notification: this is the one
    // control transfer Hybrid-1 performs. Started under the call op's
    // scope so the write becomes its child in the DAG.
    std::optional<obs::OpScope> parentScope;
    parentScope.emplace(opId);
    auto writeTask = engine_.write(
        server_, slot_ * kHybrid1SlotBytes, w.take(), true);
    parentScope.reset();
    util::Status ws = co_await writeTask;
    if (!ws.ok()) {
        obs::endSpan(span);
        obs::asyncEnd(opId, engine_.node().name(), "rpc", "hy_call");
        co_return ws;
    }

    // Spin-wait at user level on the reply sequence word (§4.3). The
    // interval between polls doubles up to 16 poll intervals, so a long
    // wait behind a busy server reads the word less often.
    auto &sim = engine_.node().simulator();
    sim::Time deadline =
        timeout > 0 ? sim.now() + timeout : sim::kTimeMax;
    bool replied = co_await mem::SpinWait(sim, process_.space(), replyBase_,
                                          seq, deadline, params_.pollInterval,
                                          params_.pollInterval * 16);
    if (!replied) {
        obs::endSpan(span);
        obs::asyncEnd(opId, engine_.node().name(), "rpc", "hy_call",
                      "timeout");
        co_return util::Status(util::ErrorCode::kTimeout,
                               "hybrid1 reply timed out");
    }

    std::vector<uint8_t> header(kRespHeader);
    util::Status rs = process_.space().read(replyBase_, header);
    REMORA_ASSERT(rs.ok());
    util::ByteReader r(header);
    auto hdr = util::get<ReplyHeader>(r); // seq already checked
    if (hdr.status != 0) {
        obs::endSpan(span);
        obs::asyncEnd(opId, engine_.node().name(), "rpc", "hy_call",
                      "remote failure");
        co_return util::Status(util::ErrorCode::kInternal,
                               "hybrid1 remote failure");
    }
    std::vector<uint8_t> data(hdr.len);
    rs = process_.space().read(replyBase_ + kRespHeader, data);
    REMORA_ASSERT(rs.ok());
    obs::endSpan(span);
    obs::asyncEnd(opId, engine_.node().name(), "rpc", "hy_call");
    co_return data;
}

} // namespace remora::rpc
