/**
 * @file
 * Wait-for graph: structured hang detection for the simulator.
 *
 * The deterministic simulator quiesces whenever its event queue drains,
 * which silently conflates two very different end states: "every
 * simulated process ran to completion" and "somebody is parked forever
 * waiting for a wakeup that will never come". The WaitGraph gives the
 * simulator (and the schedule explorer built on top of it) the state to
 * tell them apart, and to report *why* with the same site attribution
 * RaceReport uses:
 *
 *  - Lock edges. Sync objects (rmem::SpinLock, the dfs token area)
 *    record who holds which sync word and who is spinning on it. Every
 *    new wait edge runs a cycle check over holder -> wanted-word ->
 *    holder chains; a cycle is a deadlock even though the spinners keep
 *    the event queue busy with backoff timers.
 *  - Parked coroutines. Future awaits and blocking channel reads park
 *    with a site string; a park still present at quiescence is a
 *    coroutine blocked forever (an orphan/leak unless it is a daemon
 *    service loop, which registers itself as such).
 *  - Channel accounting. Notification channels record posted/consumed
 *    counts; a channel with undelivered notifications and no consumer
 *    at quiescence is a lost wakeup. Channel state survives channel
 *    destruction so evidence is not destroyed with the workload.
 *
 * The graph is owned by the Simulator and reset with it; all hooks are
 * cheap enough to stay enabled unconditionally.
 */
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/time.h"

namespace remora::sim {

/** One structured hang finding (deadlock, lost wakeup, blocked task). */
struct HangReport
{
    enum class Kind : uint8_t
    {
        /** Cycle in the wait-for graph among lock holders/waiters. */
        kDeadlock = 0,
        /** Notification(s) still pending with no consumer at quiescence. */
        kLostWakeup,
        /** Non-daemon coroutine parked forever at quiescence. */
        kBlockedTask,
        /** Step budget exhausted without draining or deadlocking. */
        kNonQuiescent,
    };

    Kind kind = Kind::kDeadlock;
    /** Simulated time the condition was detected. */
    Time at = 0;
    /** Participating sites (lock sites around the cycle, park site...). */
    std::vector<std::string> parties;
    /** Extra context (pending counts, entity tags). */
    std::string detail;

    /** Stable dedupe key: kind plus canonicalized parties. */
    std::string signature() const;

    /** Multi-line human-readable rendering (RaceReport style). */
    std::string format() const;

    /** Report kind as a lowercase token ("deadlock", ...). */
    static const char *kindName(Kind k);
};

/**
 * The wait-for graph itself. Entities are lock holders (sync-object
 * owner tags); resources are packed (node, segment, offset) sync words.
 */
class WaitGraph
{
  public:
    using Entity = uint64_t;
    using Resource = uint64_t;

    /** Pack a sync word's identity into a Resource key. */
    static Resource
    packResource(uint32_t node, uint32_t seg, uint64_t offset)
    {
        return (static_cast<uint64_t>(node) << 48) |
               (static_cast<uint64_t>(seg) << 32) | offset;
    }

    // ---- Lock edges (sync objects) ---------------------------------

    /** @p e now holds @p r; @p site labels the lock for reports. */
    void acquired(Entity e, Resource r, const std::string &site);

    /** @p e released @p r. */
    void released(Entity e, Resource r);

    /**
     * @p e failed to take @p r and will retry: record the wait edge and
     * run the cycle check.
     *
     * @return True when this edge completed a *new* deadlock cycle
     *         (recorded in deadlocks(); duplicates are suppressed).
     */
    bool waiting(Entity e, Resource r, const std::string &site, Time now);

    /** @p e stopped waiting (acquired the word or gave up). */
    void waitDone(Entity e);

    // ---- Parked coroutines -----------------------------------------

    /**
     * A coroutine parked awaiting a wakeup keyed by @p who (the await
     * state / channel). Daemon parks (eternal service loops) are
     * excluded from blockedCount() and quiescence reports.
     */
    void parked(const void *who, const std::string &site, bool daemon);

    /**
     * As above, for a static @p site label: nothing is built or copied,
     * so hot park sites (every future await) stay string-free.
     */
    void parked(const void *who, const char *site, bool daemon);

    /** The wakeup keyed by @p who arrived; the park is over. */
    void unparked(const void *who);

    // ---- Notification channels -------------------------------------

    /**
     * Register a channel; returns its id (stable allocation order, so
     * deterministic across replays and usable as a dependency key).
     * Channel state outlives channelClose() so lost-wakeup evidence
     * survives workload teardown.
     */
    uint64_t channelOpen(std::string label);

    /** Improve the channel's report label (e.g. once its name is known). */
    void channelLabel(uint64_t id, std::string label);

    /** The channel object is being destroyed. */
    void channelClose(uint64_t id);

    /** A notification was queued on the channel. */
    void channelPosted(uint64_t id);

    /** A queued notification was consumed (read or handler-dispatched). */
    void channelConsumed(uint64_t id);

    /** The channel currently has a parked blocking reader. */
    void channelReader(uint64_t id, bool present);

    // ---- Results ---------------------------------------------------

    /** Non-daemon parked coroutines right now. */
    size_t blockedCount() const;

    /** Deadlock cycles found so far (deduped). */
    const std::vector<HangReport> &deadlocks() const { return deadlocks_; }

    /**
     * End-of-run pass: lost wakeups (pending notifications nobody will
     * consume) and blocked-forever parks. Only meaningful once the
     * event queue has drained.
     */
    std::vector<HangReport> quiescenceReports(Time now) const;

  private:
    struct LockState
    {
        Entity owner = 0;
        std::string site;
    };
    struct WaitState
    {
        Resource resource = 0;
        std::string site;
    };
    struct Park
    {
        /** The static site label, or nullptr when `site` holds it. */
        const char *staticSite = nullptr;
        std::string site;
        bool daemon = false;
    };
    struct ChannelState
    {
        std::string label;
        uint64_t posted = 0;
        uint64_t consumed = 0;
        bool open = true;
        bool readerParked = false;
    };

    std::map<Resource, LockState> held_;
    std::map<Entity, WaitState> waiting_;
    std::map<const void *, Park> parked_;
    std::map<uint64_t, ChannelState> channels_;
    uint64_t nextChannelId_ = 1;
    std::vector<HangReport> deadlocks_;
    std::set<std::string> seenCycles_;
};

} // namespace remora::sim
