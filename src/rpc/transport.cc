#include "rpc/transport.h"

#include <utility>

#include "obs/trace.h"
#include "util/bytes.h"
#include "util/panic.h"

namespace remora::rpc {

namespace {

/** Reply status values. */
constexpr uint32_t kStatusOk = 0;
constexpr uint32_t kStatusBadProc = 1;

/** A call's body: the procedure, then its arguments as XDR opaque. */
struct CallBody
{
    uint32_t proc = 0;
    std::vector<uint8_t> args;
};

template <typename Io, util::MaybeConst<CallBody> T>
void
layout(Io &io, T &body)
{
    io.u32(body.proc);
    io.opaque(body.args);
}

/** A reply's body: the status, then the results as XDR opaque. */
struct ReplyBody
{
    uint32_t status = kStatusOk;
    std::vector<uint8_t> results;
};

template <typename Io, util::MaybeConst<ReplyBody> T>
void
layout(Io &io, T &body)
{
    io.u32(body.status);
    io.opaque(body.results);
}

} // namespace

RpcTransport::RpcTransport(rmem::Wire &wire, const ThreadModelCosts &costs)
    : wire_(wire), costs_(costs)
{
    wire_.setRpcHandler([this](net::NodeId src, rmem::Message &&msg) {
        onMessage(src, std::move(msg));
    });
}

void
RpcTransport::registerProc(uint32_t proc, Handler handler)
{
    procs_[proc] = std::move(handler);
}

sim::Task<util::Result<std::vector<uint8_t>>>
RpcTransport::call(net::NodeId dst, uint32_t proc, std::vector<uint8_t> args,
                   sim::Duration timeout, int maxRetries)
{
    stats_.callsIssued.inc();
    auto &cpu = wire_.node().cpu();
    auto &sim = wire_.node().simulator();
    sim.noteDigest("rpc.call", static_cast<uint64_t>(dst) << 32 | proc);

    // Runs eagerly at call time, so asyncBegin sees the caller's
    // ambient OpScope and records it as this op's parent.
    uint64_t opId = obs::asyncBegin(wire_.node().name(), "rpc", "call",
                                    obs::kv("proc", proc), obs::kv("dst", dst));

    // Step 1: block the client thread and reschedule its processor.
    // Paid once — the thread stays blocked across retransmissions.
    obs::SpanId blockSpan =
        obs::beginSpan(opId, wire_.node().name(), "rpc", "client_block");
    co_await cpu.use(costs_.clientBlock, sim::CpuCategory::kControlTransfer);
    obs::endSpan(blockSpan);

    // Marshal the request body once: every attempt sends it verbatim.
    util::ByteWriter w;
    util::put(w, CallBody{proc, std::move(args)});
    std::vector<uint8_t> body = w.take();

    // A retryable call carries a cluster-unique idempotency key so the
    // server can collapse duplicate attempts into one execution.
    uint64_t idemKey = 0;
    if (maxRetries > 0) {
        idemKey = static_cast<uint64_t>(wire_.node().id()) << 32 |
                  nextIdemKey_++;
    }

    sim::Duration curTimeout = timeout;
    util::Result<std::vector<uint8_t>> result =
        util::Status(util::ErrorCode::kTimeout, "RPC timed out");
    for (int attempt = 0;; ++attempt) {
        uint32_t xid = nextXid_++;
        auto [it, inserted] = pending_.try_emplace(
            xid,
            PendingCall{sim::Promise<util::Result<std::vector<uint8_t>>>(sim),
                        0, opId});
        REMORA_ASSERT(inserted);
        auto fut = it->second.done.future();
        if (curTimeout > 0) {
            it->second.timeoutEvent =
                sim.scheduleTimer(curTimeout, [this, xid] {
                    auto pit = pending_.find(xid);
                    if (pit == pending_.end()) {
                        return;
                    }
                    PendingCall p = std::move(pit->second);
                    pending_.erase(pit);
                    stats_.timeouts.inc();
                    p.done.set(util::Status(util::ErrorCode::kTimeout,
                                            "RPC timed out"));
                });
        }

        rmem::RpcMsg msg;
        msg.xid = xid;
        msg.isResponse = false;
        msg.idemKey = idemKey;
        msg.body = body;
        wire_.send(dst, rmem::Message(std::move(msg)),
                   sim::CpuCategory::kDataReply, opId);

        result = co_await fut;
        if (result.ok() || attempt >= maxRetries ||
            result.status().code() != util::ErrorCode::kTimeout) {
            break;
        }

        // Re-send with a fresh xid (the doubled timeout distinguishes a
        // slow cluster from a dead peer); the old xid's reply, if it
        // ever shows up, is counted as late and dropped.
        stats_.retries.inc();
        sim.noteDigest("rpc.retry", static_cast<uint64_t>(dst) << 32 | xid);
        if (opId != 0) {
            obs::instant(opId, wire_.node().name(), "rpc", "retry",
                         obs::kv("attempt", attempt + 2));
        }
        curTimeout *= 2;
    }
    co_return result;
}

void
RpcTransport::onMessage(net::NodeId src, rmem::Message &&msg)
{
    auto &rpc = std::get<rmem::RpcMsg>(msg);
    if (rpc.isResponse) {
        completeCall(rpc.xid, std::move(rpc.body));
    } else {
        serve(src, rpc.xid, rpc.idemKey, std::move(rpc.body)).detach();
    }
}

sim::Task<void>
RpcTransport::serve(net::NodeId src, uint32_t xid, uint64_t idemKey,
                    std::vector<uint8_t> body)
{
    stats_.callsServed.inc();
    auto &cpu = wire_.node().cpu();

    // At-most-once: a request bearing a known idempotency key must not
    // re-run the handler, no matter how many duplicate attempts arrive.
    if (idemKey != 0) {
        auto dit = served_.find(idemKey);
        if (dit != served_.end()) {
            stats_.dedupHits.inc();
            wire_.node().simulator().noteDigest("rpc.dedup", idemKey);
            if (!dit->second.done) {
                // Handler still running from an earlier attempt: pin
                // the freshest xid so the eventual reply resolves the
                // attempt the client is actually waiting on.
                dit->second.latestXid = xid;
                co_return;
            }
            // Replay the cached reply. Charge packet processing and the
            // return path, but no dispatch or handler execution.
            std::vector<uint8_t> cached = dit->second.reply;
            co_await cpu.use(costs_.serverPacket + costs_.serverReturn +
                                 2 * wire_.costs().copyCost(cached.size()),
                             sim::CpuCategory::kControlTransfer);
            rmem::RpcMsg replay;
            replay.xid = xid;
            replay.isResponse = true;
            replay.body = std::move(cached);
            wire_.send(src, rmem::Message(std::move(replay)),
                       sim::CpuCategory::kDataReply);
            co_return;
        }
        served_.try_emplace(idemKey, DedupEntry{false, xid, {}});
    }

    // Body runs eagerly under route()'s OpScope; capture the op now,
    // before the first suspension loses the ambient context.
    uint64_t op = obs::TraceRecorder::currentOp();
    obs::SpanId serveSpan = obs::kNoSpan;
    if (op != 0) {
        serveSpan = obs::beginSpan(op, wire_.node().name(), "rpc", "serve",
                                   obs::kv("xid", xid));
    }

    // Step 2: request-packet processing in the destination OS. The
    // kernel socket path copies the payload twice (mbuf chain, then
    // into the server's address space) — the "sometimes repeated
    // copying of data between the client or server memory and the
    // network" of §2.
    co_await cpu.use(costs_.serverPacket +
                         2 * wire_.costs().copyCost(body.size()),
                     sim::CpuCategory::kControlTransfer);
    // Step 3: schedule, dispatch, and execute the server thread.
    co_await cpu.use(costs_.serverDispatch,
                     sim::CpuCategory::kControlTransfer);

    util::ByteReader r(body);
    auto call = util::get<CallBody>(r);

    ReplyBody reply;
    auto it = procs_.find(call.proc);
    if (it == procs_.end() || !r.ok()) {
        stats_.badProc.inc();
        reply.status = kStatusBadProc;
    } else {
        // Copy the handler out of procs_ before suspending: a
        // registerProc() during the awaited dispatch cost can rehash
        // the map and invalidate the iterator.
        Handler handler = it->second;
        // Stub invocation overhead around the handler body.
        co_await cpu.use(costs_.procInvoke, sim::CpuCategory::kProcInvoke);
        reply.results = co_await handler(src, std::move(call.args));
    }

    rmem::RpcMsg msg;
    msg.xid = xid;
    msg.isResponse = true;
    util::ByteWriter w;
    util::put(w, reply);
    msg.body = w.take();

    // Cache the reply and answer the freshest attempt: duplicates that
    // raced in while the handler ran updated latestXid above. Re-find
    // the entry — the map may have rehashed during the suspensions.
    if (idemKey != 0) {
        auto dit = served_.find(idemKey);
        REMORA_ASSERT(dit != served_.end());
        dit->second.done = true;
        dit->second.reply = msg.body;
        msg.xid = dit->second.latestXid;
    }

    // Step 4: reschedule the server's processor on return, plus the
    // socket-layer copies of the reply on the way out.
    co_await cpu.use(costs_.serverReturn +
                         2 * wire_.costs().copyCost(msg.body.size()),
                     sim::CpuCategory::kControlTransfer);
    obs::endSpan(serveSpan);
    wire_.send(src, rmem::Message(std::move(msg)),
               sim::CpuCategory::kDataReply, op);
}

void
RpcTransport::completeCall(uint32_t xid, std::vector<uint8_t> body)
{
    auto it = pending_.find(xid);
    if (it == pending_.end()) {
        // The call already timed out (and possibly retried under a
        // fresh xid); count the drop instead of hiding it.
        stats_.lateReplies.inc();
        wire_.node().simulator().noteDigest("rpc.late_reply", xid);
        obs::instant(0, wire_.node().name(), "rpc", "late_reply",
                     obs::kv("xid", xid));
        return;
    }
    PendingCall p = std::move(it->second);
    pending_.erase(it);
    if (p.timeoutEvent != 0) {
        wire_.node().simulator().cancel(p.timeoutEvent);
    }

    // Steps 5 + 6: reply-packet processing, then schedule and resume
    // the original client thread.
    auto &cpu = wire_.node().cpu();
    obs::SpanId resumeSpan = obs::kNoSpan;
    if (p.traceOp != 0) {
        resumeSpan = obs::beginSpan(p.traceOp, wire_.node().name(), "rpc",
                                    "client_resume");
    }
    // The completion runs on this node's CPU, so the node outlives it.
    cpu.post(costs_.clientPacket + costs_.clientResume,
             sim::CpuCategory::kControlTransfer,
             [p = std::move(p), body = std::move(body), resumeSpan,
              node = &wire_.node()]() mutable {
                 obs::endSpan(resumeSpan);
                 obs::asyncEnd(p.traceOp, node->name(), "rpc", "call");
                 util::ByteReader r(body);
                 auto reply = util::get<ReplyBody>(r);
                 if (reply.status != kStatusOk || !r.ok()) {
                     p.done.set(util::Status(util::ErrorCode::kInternal,
                                             "RPC failed remotely"));
                 } else {
                     p.done.set(std::move(reply.results));
                 }
             });
}

} // namespace remora::rpc
