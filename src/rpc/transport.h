/**
 * @file
 * The conventional cross-machine RPC baseline.
 *
 * Section 2 of the paper decomposes an RPC into data transfer plus six
 * control-transfer steps: (1) block the client thread and reschedule,
 * (2) process the request packet in the destination OS, (3) schedule,
 * dispatch and execute the server thread, (4) reschedule the server's
 * processor on return, (5) process the reply packet on the client, and
 * (6) schedule and resume the original client thread. RpcTransport
 * charges each step to the right CPU under the right accounting
 * category, on top of the *same* cell substrate the remote-memory model
 * uses, so a comparison between the two isolates exactly the cost of
 * unified data+control transfer.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rmem/wire.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "util/status.h"

namespace remora::rpc {

/**
 * Control-transfer costs of the RPC thread model (§2's six steps).
 *
 * Calibrated to an Ultrix-class kernel RPC stack on a 25 MHz R3000 —
 * socket-layer packet processing plus full scheduler involvement on
 * both ends (the stack under the paper's instrumented NFS server), for
 * a null-call control overhead around a millisecond. Hybrid-1, by
 * contrast, pays only the tuned notification path (~260 us), which is
 * exactly why the paper uses it as the *strongest* RPC-like contender:
 * a conventional RPC fares worse than HY on every axis.
 */
struct ThreadModelCosts
{
    /** (1) Block the client thread, reschedule its processor. */
    sim::Duration clientBlock = sim::usec(110);
    /** (2) Request-packet protocol processing in the server OS. */
    sim::Duration serverPacket = sim::usec(160);
    /** (3) Schedule + dispatch the server thread. */
    sim::Duration serverDispatch = sim::usec(230);
    /** Stub/procedure invocation overhead around the handler body. */
    sim::Duration procInvoke = sim::usec(60);
    /** (4) Reschedule the server's processor on return. */
    sim::Duration serverReturn = sim::usec(110);
    /** (5) Reply-packet protocol processing on the client OS. */
    sim::Duration clientPacket = sim::usec(160);
    /** (6) Schedule and resume the original client thread. */
    sim::Duration clientResume = sim::usec(230);
};

/** Statistics of one transport endpoint. */
struct RpcStats
{
    sim::Counter callsIssued;
    sim::Counter callsServed;
    sim::Counter timeouts;
    sim::Counter badProc;
    /** Timed-out attempts re-sent with a fresh xid (same idemKey). */
    sim::Counter retries;
    /** Replies that arrived after their call had already timed out. */
    sim::Counter lateReplies;
    /** Requests answered from the dedup cache without re-execution. */
    sim::Counter dedupHits;
};

/** Request/response RPC endpoint bound to a node's Wire. */
class RpcTransport
{
  public:
    /**
     * A server procedure: consumes arguments, produces results. Runs as
     * a coroutine so it can await further I/O; its body should charge
     * kProcExec CPU itself.
     */
    using Handler = std::function<sim::Task<std::vector<uint8_t>>(
        net::NodeId src, std::vector<uint8_t> args)>;

    /**
     * @param wire The node's kernel wire (shared with the rmem engine).
     * @param costs Thread-model control-transfer costs.
     */
    RpcTransport(rmem::Wire &wire, const ThreadModelCosts &costs = {});

    RpcTransport(const RpcTransport &) = delete;
    RpcTransport &operator=(const RpcTransport &) = delete;

    /** Register the server procedure for @p proc. */
    void registerProc(uint32_t proc, Handler handler);

    /**
     * Call procedure @p proc on node @p dst.
     *
     * The returned task resolves with the result bytes after all six
     * control-transfer steps and both data transfers complete.
     *
     * @param dst Destination node.
     * @param proc Procedure number (must be registered there).
     * @param args Marshaled arguments.
     * @param timeout Zero = wait forever; otherwise resolve kTimeout.
     *        With maxRetries == 0 this keeps the seed's §3.7 semantics:
     *        no retransmission, a timeout means the peer is gone.
     * @param maxRetries Bounded retry budget for lossy clusters: each
     *        timed-out attempt is re-sent with a fresh xid and a shared
     *        idempotency key (the timeout doubling per attempt), so the
     *        server can collapse duplicates and replay the cached reply
     *        instead of re-executing the handler. At-most-once: after
     *        the budget is spent the call resolves kTimeout, and the
     *        handler has run at most one time.
     */
    sim::Task<util::Result<std::vector<uint8_t>>> call(
        net::NodeId dst, uint32_t proc, std::vector<uint8_t> args,
        sim::Duration timeout = 0, int maxRetries = 0);

    /** Counters. */
    const RpcStats &stats() const { return stats_; }

  private:
    struct PendingCall
    {
        sim::Promise<util::Result<std::vector<uint8_t>>> done;
        sim::EventId timeoutEvent = 0;
        /** Async op of the call, closed when the client resumes. */
        uint64_t traceOp = 0;
    };

    /**
     * At-most-once record of one idempotency key. While the handler is
     * still running the entry pins only the freshest xid; once done it
     * caches the reply so retransmitted requests can be answered
     * without re-execution. Entries live for the run: forgetting a
     * completed key would let a very late duplicate re-run the handler.
     */
    struct DedupEntry
    {
        bool done = false;
        uint32_t latestXid = 0;
        std::vector<uint8_t> reply;
    };

    /** Wire delivery of RPC envelope messages. */
    void onMessage(net::NodeId src, rmem::Message &&msg);

    /** Server side: dedup, then run steps 2-4 and the handler. */
    sim::Task<void> serve(net::NodeId src, uint32_t xid, uint64_t idemKey,
                          std::vector<uint8_t> body);

    /** Client side: run steps 5-6 and resolve the caller. */
    void completeCall(uint32_t xid, std::vector<uint8_t> body);

    rmem::Wire &wire_;
    ThreadModelCosts costs_;
    std::unordered_map<uint32_t, Handler> procs_;
    std::unordered_map<uint32_t, PendingCall> pending_;
    std::unordered_map<uint64_t, DedupEntry> served_;
    uint32_t nextXid_ = 1;
    uint64_t nextIdemKey_ = 1;
    RpcStats stats_;
};

} // namespace remora::rpc
