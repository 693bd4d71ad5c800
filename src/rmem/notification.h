/**
 * @file
 * Control transfer: fd-style notification channels.
 *
 * The paper integrates control transfer with Ultrix file descriptors:
 * each exported segment has an associated descriptor that becomes
 * readable (with a small amount of control information) when an
 * incoming operation requests notification; processes use select/read/
 * signal to consume them (§3.1.2). NotificationChannel reproduces the
 * read and signal halves of that interface (select across several
 * channels is not modelled, DESIGN.md §7):
 *
 *  - next()    — blocking read of the next notification record;
 *  - readable() / tryNext() — non-blocking poll;
 *  - setSignalHandler() — SIGIO-style asynchronous upcall.
 *
 * Delivering a notification charges the notifyDispatchCost (scheduler
 * wakeup + context switches + select dispatch) to the node's CPU under
 * the control-transfer category; this is exactly the cost the paper's
 * structure works to avoid on the common path.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>

#include "net/cell.h"
#include "rmem/cost_model.h"
#include "rmem/segment.h"
#include "sim/cpu.h"
#include "sim/task.h"

namespace remora::rmem {

/** Request kinds that can trigger a notification. */
enum class NotifyKind : uint8_t
{
    kWrite = 0,
    kRead,
    kCas,
};

/** The "small amount of control information" a notification carries. */
struct Notification
{
    /** Node whose request triggered the notification. */
    net::NodeId srcNode = 0;
    /** Kind of request that carried the notify bit. */
    NotifyKind kind = NotifyKind::kWrite;
    /** Segment offset the request targeted. */
    uint32_t offset = 0;
    /** Bytes the request covered. */
    uint32_t count = 0;
    /**
     * Async op of the request that triggered the notification
     * (0 = untraced). Carried through the queue so the consumer's
     * events link into the initiator's trace DAG — the control
     * transfer is part of the op's critical path.
     */
    uint64_t traceOp = 0;
};

/** Per-segment notification descriptor (the paper's segment fd). */
class NotificationChannel
{
  public:
    /**
     * @param cpu The owning node's CPU (dispatch cost is charged here).
     * @param costs Shared cost model.
     */
    NotificationChannel(sim::CpuResource &cpu, const CostModel &costs);

    NotificationChannel(const NotificationChannel &) = delete;
    NotificationChannel &operator=(const NotificationChannel &) = delete;

    ~NotificationChannel();

    /** True when a notification is queued (select()-style readability). */
    bool readable() const { return !queue_.empty(); }

    /**
     * Blocking read: suspends the calling coroutine until a
     * notification arrives, then consumes and returns it. At most one
     * blocking reader at a time.
     */
    sim::Task<Notification> next();

    /**
     * Non-blocking read: consume the head notification if present.
     *
     * @param out Receives the record when one was queued.
     * @return True when a record was consumed.
     */
    bool tryNext(Notification &out);

    /**
     * Install a SIGIO-style handler invoked (after the dispatch cost)
     * for each arriving notification *instead of* queueing it. Pass an
     * empty function to remove.
     */
    void setSignalHandler(std::function<void(const Notification &)> handler);

    /**
     * Deliver a notification (called by the engine when an incoming
     * request warrants control transfer): a batch of one.
     */
    void post(const Notification &n) { postBatch({&n, 1}); }

    /**
     * Deliver several notifications behind ONE doorbell: every record
     * is queued (or handed to the signal handler) individually, but the
     * scheduler wakeup / select dispatch — the notifyDispatchCost — is
     * charged once for the whole batch. This is the control-transfer
     * coalescing of a vectored meta-instruction: N notify bits on the
     * same channel cost one context-switch pair, not N.
     */
    void postBatch(std::span<const Notification> batch);

    /** Total notifications delivered through this channel. */
    uint64_t delivered() const { return delivered_; }

    /**
     * Actor (node id) consuming this channel, for the race detector:
     * post() releases the poster's clock into the channel and every
     * consumption point (handler dispatch, next(), tryNext()) acquires
     * it on behalf of this actor — the notification-delivery
     * happens-before edge. Set by the engine at export time.
     */
    void setRaceContext(uint32_t actor) { raceOwner_ = actor; }

    /**
     * Node scope used for this channel's trace events (set by the
     * engine at export time; empty disables channel tracing).
     */
    void setTraceNode(std::string node) { traceNode_ = std::move(node); }

    /** The owning node's simulator (wakeups order through its queue). */
    sim::Simulator &simulator() { return cpu_.simulator(); }

    /**
     * Declare this channel's blocking reader an eternal daemon (a
     * serve-forever loop): its park is expected at quiescence and is
     * excluded from blocked-task reporting. Call before the loop's
     * first next().
     */
    void markDaemon() { daemon_ = true; }

    /**
     * Label used in wait-graph reports and dependency hints (set by the
     * engine to the exported segment's identity).
     */
    void setHangLabel(std::string label);

  private:
    /** Wake the blocked reader after the dispatch cost. */
    void wakeConsumers();

    /** The owning simulator's wait graph. */
    sim::WaitGraph &waitGraph() { return cpu_.simulator().waitGraph(); }

    /** Re-park a parked reader under a copy of parkSite_. */
    void keepParkSite();

    sim::CpuResource &cpu_;
    const CostModel &costs_;
    std::deque<Notification> queue_;
    std::function<void(const Notification &)> signalHandler_;
    // Blocked reader rendezvous (at most one).
    std::coroutine_handle<> reader_;
    uint64_t delivered_ = 0;
    uint32_t raceOwner_ = 0;
    std::string traceNode_;
    /** Wait-graph channel id; doubles as the channel dependency key. */
    uint64_t wgId_ = 0;
    bool daemon_ = false;
    /** "<label> blocking read", built once per label, not per park. */
    std::string parkSite_;
};

} // namespace remora::rmem
