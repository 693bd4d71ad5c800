/**
 * @file
 * The discrete-event simulation engine.
 *
 * A Simulator owns a time-ordered event queue and the current simulated
 * clock. Components schedule callbacks at future instants; run() pops
 * events in (time, insertion) order until the queue drains or a limit is
 * reached. Events scheduled for the same instant execute in insertion
 * order, which makes causality deterministic and test output stable.
 *
 * Same-instant ordering is *pluggable*: whenever more than one event is
 * ready at the minimal timestamp, the ready set is offered to the
 * installed SchedulePolicy, which picks the one to run. Three policies
 * ship with the engine:
 *
 *  - insertion order (the default, policy-less fast path);
 *  - PerturbPolicy (setPerturbation / REMORA_PERTURB): a seeded
 *    pseudo-random tie-break that exercises orderings the model does
 *    not enforce while staying fully deterministic per seed;
 *  - RecordReplayPolicy: records the sequence of choice indices taken
 *    at decision points, or replays a recorded choice vector — the
 *    primitive the schedule explorer (sim/explorer.h) is built on.
 *
 * Every consulted choice is folded into the schedule digest, so a
 * replayed choice vector reproduces a run bit-identically.
 *
 * Every schedule call builds its callable straight into the event's pool
 * slot, so a callback is moved at most once on its way there.
 *
 * A source whose event times never decrease, such as one CPU's
 * first-come-first-served completions, may queue them on a *lane*
 * (openLane): only the lane's earliest event sits in the heap, and the
 * rest wait behind it in a FIFO. Keys still come from the one seq
 * counter, so merging the sorted lanes through the heap yields the
 * same total order as pushing every event. Timers of one fixed delay
 * form such a source too (scheduleTimer): each delay gets a lane whose
 * entries can be cancelled, a cancelled inner entry staying behind,
 * dead, until it reaches the front.
 *
 * A spin-wait's polls, which change nothing until a store touches the
 * polled word, may run as a *poll chain* (PollChain): each poll keeps
 * the key, records and count of the event it stands for but runs
 * nothing, until a wake() puts the pending one on the heap.
 *
 * Events carry a dependency hint (DepHint) captured from the ambient
 * hint at schedule time: which channel, sync word, or segment range the
 * event's causal chain is acting on. Hints never affect execution; the
 * explorer uses them to prune commuting interleavings (sleep sets).
 *
 * The simulator also owns a WaitGraph (sim/waitgraph.h) fed by the
 * sync/notification layers, distinguishing "queue drained because all
 * done" from "drained with coroutines blocked forever", and halting
 * schedules that deadlock while still generating backoff-timer events.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/determinism.h"
#include "sim/time.h"
#include "sim/waitgraph.h"
#include "util/panic.h"

namespace remora::sim {

/**
 * Opaque handle identifying a scheduled event, usable for cancellation.
 * It tags the event's pool slot with the slot's 32-bit generation, so a
 * handle kept past its event's run or cancellation misses later events
 * that reuse the slot (until that slot's generation wraps, after 2^32
 * reuses). Zero is never a valid handle.
 */
using EventId = uint64_t;

class Simulator;

/**
 * What an event's causal chain is operating on, for commutativity
 * pruning. kNone means "unknown" and is conservatively dependent with
 * everything. Channel hints are keyed by channel identity; memory hints
 * (sync words, segment ranges) by packed (node, segment) plus a byte
 * range, so a sync word and a data write to the same word conflict.
 */
struct DepHint
{
    enum class Kind : uint8_t
    {
        kNone = 0,
        kChannel,
        kSyncWord,
        kSegRange,
    };

    Kind kind = Kind::kNone;
    uint64_t key = 0;
    uint32_t lo = 0;
    uint32_t hi = 0;

    /** Hint for a notification-channel operation. */
    static DepHint
    channel(uint64_t key)
    {
        return DepHint{Kind::kChannel, key, 0, 0};
    }

    /** Hint for a sync-word access (the aligned 4-byte word at offset). */
    static DepHint
    syncWord(uint64_t key, uint32_t offset)
    {
        return DepHint{Kind::kSyncWord, key, offset, offset + 4};
    }

    /** Hint for a data access to [lo, hi) of a segment. */
    static DepHint
    segRange(uint64_t key, uint32_t lo, uint32_t hi)
    {
        return DepHint{Kind::kSegRange, key, lo, hi};
    }

    /**
     * May the two hinted operations fail to commute? Unknown hints are
     * always dependent; channel ops conflict on the same channel; memory
     * ops conflict when their byte ranges overlap in the same segment.
     */
    static bool
    dependent(const DepHint &a, const DepHint &b)
    {
        if (a.kind == Kind::kNone || b.kind == Kind::kNone) {
            return true;
        }
        bool achan = a.kind == Kind::kChannel;
        bool bchan = b.kind == Kind::kChannel;
        if (achan != bchan) {
            return false;
        }
        if (achan) {
            return a.key == b.key;
        }
        return a.key == b.key && a.lo < b.hi && b.lo < a.hi;
    }
};

/**
 * The (when, seq) key that places an event in the queue's total order:
 * events run by time, and by seq (insertion order) within an instant.
 */
struct EventKey
{
    Time when = 0;
    uint64_t seq = 0;
};

/** One runnable alternative offered to a SchedulePolicy. */
struct ReadyChoice
{
    /**
     * The event's insertion sequence number (1 for the first event ever
     * scheduled), not its EventId handle: sequence numbers never repeat
     * within a run, so policies and sleep sets can key on them.
     */
    uint64_t id = 0;
    DepHint hint;
};

/**
 * Same-instant tie-break strategy. choose() is consulted only when two
 * or more events are ready at the minimal timestamp (a *decision
 * point*); the ready set is ordered by insertion (id ascending).
 */
class SchedulePolicy
{
  public:
    virtual ~SchedulePolicy() = default;

    /** Pick the index of the event to run next. */
    virtual size_t choose(Simulator &sim,
                          const std::vector<ReadyChoice> &ready) = 0;
};

/**
 * The seeded pseudo-random tie-break behind setPerturbation: runs the
 * ready event with the smallest splitmix64-mixed key, reproducing the
 * historical perturbed total order exactly.
 */
class PerturbPolicy final : public SchedulePolicy
{
  public:
    explicit PerturbPolicy(uint64_t seed) : seed_(seed) {}

    size_t choose(Simulator &sim,
                  const std::vector<ReadyChoice> &ready) override;

  private:
    uint64_t seed_;
};

/**
 * Replay a recorded choice vector, then fall through to a fallback
 * chooser (insertion order when none given). Records every choice it
 * makes, so a partial prefix extends into a full replayable vector.
 */
class RecordReplayPolicy final : public SchedulePolicy
{
  public:
    /** Chooser for decision points beyond the prefix. */
    using Fallback =
        std::function<size_t(const std::vector<ReadyChoice> &, size_t depth)>;

    explicit RecordReplayPolicy(std::vector<uint32_t> prefix = {},
                                Fallback fallback = {})
        : prefix_(std::move(prefix)), fallback_(std::move(fallback))
    {}

    size_t choose(Simulator &sim,
                  const std::vector<ReadyChoice> &ready) override;

    /** Every choice made so far (prefix + fallback choices). */
    const std::vector<uint32_t> &recorded() const { return recorded_; }

  private:
    std::vector<uint32_t> prefix_;
    Fallback fallback_;
    std::vector<uint32_t> recorded_;
    size_t depth_ = 0;
};

/**
 * A move-only `void()` callable for event callbacks. Every capture lives
 * inside the callable itself, so scheduling one allocates nothing; a
 * capture over kInlineBytes, or one whose move may throw, does not
 * compile. Unlike std::function it accepts move-only captures such as
 * std::unique_ptr.
 */
class Callback
{
  public:
    /**
     * Inline capture budget: a pointer plus a 64-byte net::Cell, the
     * capture of the per-cell link delivery and switch forwarding
     * events, which dominate event counts.
     */
    static constexpr size_t kInlineBytes = 72;

    /**
     * True when a callable of type @p D fits the inline buffer; the
     * constructor accepts no other.
     */
    template <typename D>
    static constexpr bool kFitsInline =
        sizeof(D) <= kInlineBytes &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    /** An empty callback (tests false; must not be invoked). */
    Callback() noexcept = default;

    /** Wrap any callable invocable as `void()` (implicit, like a lambda). */
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
                 std::is_invocable_v<std::decay_t<F> &> &&
                 kFitsInline<std::decay_t<F>>)
    Callback(F &&f)
    {
        build(std::forward<F>(f));
    }

    Callback(Callback &&other) noexcept { take(other); }

    Callback &
    operator=(Callback &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    ~Callback() { reset(); }

    /** True when holding a callable. */
    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke the callable; the callback must not be empty. */
    void operator()() { ops_->invoke(buf_); }

    /** Destroy the held callable, leaving the callback empty. */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            if (ops_->destroy != nullptr) {
                ops_->destroy(buf_);
            }
            ops_ = nullptr;
        }
    }

    /**
     * Replace the held callable with @p f, built in place: a callable
     * is moved (or copied) once, straight into the buffer, and a
     * Callback hands over what it holds. Takes what the constructors
     * take, so the same captures fail to compile.
     */
    template <typename F>
        requires std::is_constructible_v<Callback, F>
    void
    emplace(F &&f)
    {
        if constexpr (std::is_same_v<std::remove_cvref_t<F>, Callback>) {
            *this = std::move(f);
        } else {
            reset();
            build(std::forward<F>(f));
        }
    }

  private:
    template <typename F>
    void
    build(F &&f)
    {
        using D = std::decay_t<F>;
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        ops_ = &Inline<D>::kOps;
    }

    /**
     * Type-erased operations. A null relocate means the stored bytes
     * move with memcpy (trivially copyable captures); a null destroy
     * means there is nothing to destroy.
     */
    struct Ops
    {
        void (*invoke)(void *self);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename D>
    struct Inline
    {
        static D *get(void *p) { return std::launder(static_cast<D *>(p)); }
        static void invoke(void *p) { (*get(p))(); }
        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) D(std::move(*get(src)));
            get(src)->~D();
        }
        static void destroy(void *p) noexcept { get(p)->~D(); }
        static constexpr Ops kOps{
            &invoke,
            std::is_trivially_copyable_v<D> ? nullptr : &relocate,
            std::is_trivially_destructible_v<D> ? nullptr : &destroy};
    };

    void
    take(Callback &other) noexcept
    {
        ops_ = std::exchange(other.ops_, nullptr);
        if (ops_ == nullptr) {
            return;
        }
        if (ops_->relocate != nullptr) {
            ops_->relocate(buf_, other.buf_);
        } else {
            std::memcpy(buf_, other.buf_, kInlineBytes);
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

/**
 * What an event can run: a callable a Callback can hold (moved or
 * copied in), or a Callback handed over.
 */
template <typename F>
concept EventFn = std::is_constructible_v<Callback, F>;

/**
 * A spin-wait's poll chain: the eager loop `wait(interval); interval =
 * min(2 * interval, cap)` of a coroutine polling a word for a change.
 * Simulator::schedulePoll queues its next poll. While the owner watches
 * the word, a poll that would find it unchanged is *elided*: it takes
 * the seq, the `sched` and `exec` records and the count of the event it
 * stands for, at that event's instant, but runs nothing and queues the
 * next poll itself. When a store changes the word, Simulator::wake turns
 * the pending poll into an event at the key it already holds, so no
 * event's key moves.
 */
struct PollChain
{
    Duration interval = 0;    ///< Delay to the next poll queued.
    Duration cap = 0;         ///< Ceiling of the doubling interval.
    Time deadline = kTimeMax; ///< Polls at or after it run as events.
    Callback fn;              ///< What a poll does when it runs as an event.

    // Kept by the simulator.
    DepHint hint;             ///< Ambient hint when the chain started.
    bool live = false;        ///< Its pending poll is elided.
    EventId event = 0;        ///< The pending poll, when an event.
};

/** Discrete-event scheduler and simulated clock. */
class Simulator
{
  public:
    /** Applies the REMORA_PERTURB environment seed when set. */
    Simulator();
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run @p delay after now.
     *
     * The event inherits the ambient dependency hint (see HintScope).
     *
     * @param delay Non-negative delay; zero means "later this instant".
     * @param fn Callable to invoke, built in the event's slot.
     * @return Handle usable with cancel().
     */
    template <EventFn F>
    EventId
    schedule(Duration delay, F &&fn)
    {
        REMORA_ASSERT(delay >= 0);
        return scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at absolute time @p when (>= now).
     *
     * @return Handle usable with cancel().
     */
    template <EventFn F>
    EventId
    scheduleAt(Time when, F &&fn)
    {
        REMORA_ASSERT(when >= now_);
        uint32_t slot = build(std::forward<F>(fn));
        return push(slot, when, nextSeq_++, kNoLane);
    }

    /**
     * Schedule @p fn @p delay after now, as schedule(delay, fn) would:
     * same key, same `sched` and `cancel` records. Timers of one delay
     * armed at a never-decreasing now() expire in arming order, so each
     * distinct delay gets a lane and only its earliest live timer sits
     * in the heap. Cancelling that one puts the lane's next live timer
     * in its place; cancelling one behind it destroys its callback at
     * once and leaves a dead entry, dropped when it reaches the front.
     * While a SchedulePolicy is installed the timer goes straight onto
     * the heap.
     *
     * @return Handle usable with cancel().
     */
    template <EventFn F>
    EventId
    scheduleTimer(Duration delay, F &&fn)
    {
        REMORA_ASSERT(delay >= 0);
        LaneId lane = policy_ == nullptr ? timerLane(delay) : kNoLane;
        uint32_t slot = build(std::forward<F>(fn));
        return push(slot, now_ + delay, nextSeq_++, lane);
    }

    /** Identifies a lane opened with openLane(). */
    using LaneId = uint32_t;

    /** Open a lane for a source whose event times never decrease. */
    LaneId openLane();

    /**
     * Schedule @p fn at @p when (>= now, and no earlier than any event
     * scheduled on @p lane before) on @p lane. It takes its key exactly
     * as scheduleAt(when, fn) would, but it cannot be cancelled. While a
     * SchedulePolicy is installed it goes straight onto the heap, from
     * which the policy's ready set is gathered.
     */
    template <EventFn F>
    void
    scheduleAt(LaneId lane, Time when, F &&fn)
    {
        LaneId queued = laneFor(lane, when);
        uint32_t slot = build(std::forward<F>(fn));
        push(slot, when, nextSeq_++, queued);
    }

    /**
     * Reserve the key an event scheduled now at @p when (>= now) would
     * get, without queueing anything: a *deferred event*. Its owner
     * queues it at exactly that key once running it could change
     * something, and otherwise lets it lapse, so every event that runs
     * keeps its place in the total order. Owners defer only while no
     * SchedulePolicy is installed: a policy may run a same-instant
     * event ahead of a smaller seq, so passed() means nothing under one.
     */
    EventKey
    reserve(Time when)
    {
        if (reserved_.size() == reservedCap_) {
            pruneReserved();
        }
        reserved_.push_back(when);
        return EventKey{when, nextSeq_++};
    }

    /**
     * Queue @p fn at a key from reserve() that has not passed().
     *
     * @return Handle usable with cancel().
     */
    template <EventFn F>
    EventId
    scheduleAt(EventKey key, F &&fn)
    {
        REMORA_ASSERT(!passed(key));
        uint32_t slot = build(std::forward<F>(fn));
        return push(slot, key.when, key.seq, kNoLane);
    }

    /**
     * True when an event at @p key would already have run: its time is
     * before now, or it is now and its seq is below the running event's
     * (between run() calls, every key up to now has passed).
     */
    bool
    passed(EventKey key) const
    {
        return key.when < now_ || (key.when == now_ && key.seq < runningSeq_);
    }

    /**
     * Run @p fn as schedule(0, fn) would, in place when that event would
     * run next anyway: no policy or step budget is set and nothing else
     * is due now. It then takes the seq the event would have taken as
     * the running seq, so passed() answers as before. Only the last act
     * of a running event may call this.
     */
    template <typename F>
    void
    runNext(F &&fn)
    {
        if (policy_ == nullptr && stepBudgetEnd_ == 0 && !dueBy(now_)) {
            runningSeq_ = nextSeq_++;
            fn();
        } else {
            schedule(0, std::forward<F>(fn));
        }
    }

    /**
     * Cancel a previously scheduled event: its callback is destroyed and
     * its `cancel` record folded at once. It leaves the queue at once
     * too, except a timer behind its lane's front (scheduleTimer), which
     * stays there dead, counted by pendingEvents() but not by
     * livePendingEvents(), until it reaches the front.
     *
     * Cancelling an event that already ran, is running, or was already
     * cancelled is a harmless no-op, which lets timeout guards race
     * completion safely.
     */
    void cancel(EventId id);

    /**
     * Queue @p c's next poll @p c.interval from now, taking its seq and
     * `sched` record as schedule() would, then double @p c.interval up
     * to @p c.cap. With @p elide set, no policy installed and the poll
     * before @p c.deadline, the poll is elided and the chain is *live*;
     * otherwise it is an event that runs @p c.fn. The caller sets
     * @p elide only while a store to the polled word is sure to wake()
     * the chain: every poll of a live chain runs nothing, and each one
     * queues the next, until one would fall at or after the deadline
     * and runs as an event instead.
     */
    void schedulePoll(PollChain &c, bool elide);

    /**
     * Turn the pending poll of live chain @p c into an event at the key
     * it holds, with the hint captured when the chain started; a no-op
     * when @p c is not live.
     */
    void wake(PollChain &c);

    /** Drop @p c's pending poll, elided or an event, as cancel() does. */
    void cancel(PollChain &c);

    /**
     * Run the next pending event, if any.
     *
     * @return True if an event ran; false when the queue is empty, the
     *         step budget is exhausted, or a deadlock halted the run.
     */
    bool step();

    /**
     * Run events until the queue drains, simulated time would exceed
     * @p limit, the step budget runs out, or a detected deadlock halts
     * execution.
     *
     * Events at exactly @p limit still run. The clock does not advance
     * past the last executed event, or past the latest time reserve()
     * handed out up to @p limit when that is later: where running the
     * lapsed deferred events would have left it.
     *
     * @return Number of events executed by this call.
     */
    uint64_t run(Time limit = kTimeMax);

    /** Total events executed over the simulator's lifetime. */
    uint64_t eventsProcessed() const { return processed_; }

    /**
     * Entries the queue holds: the heap's, those in lane FIFOs (dead
     * timers among them), and one per live poll chain (its elided poll).
     */
    size_t
    pendingEvents() const
    {
        return heap_.size() + laneBacklog_ + liveChains();
    }

    /**
     * Pending events that will run unless cancelled: pendingEvents()
     * less the dead timers still waiting in their lanes.
     */
    size_t livePendingEvents() const { return pendingEvents() - deadTimers_; }

    /**
     * Fold a component-level (now, kind, actor) record into the
     * semantic digest. Layers call this at protocol milestones (op
     * issued, cell delivered, request served).
     */
    void
    noteDigest(std::string_view kind, uint64_t actor)
    {
        semanticDigest_.mixRecord(now_, kind, actor);
    }

    /** As above, for string-identified actors (names, files). */
    void
    noteDigest(std::string_view kind, std::string_view actor)
    {
        semanticDigest_.mixU64(static_cast<uint64_t>(now_));
        semanticDigest_.mix(kind);
        semanticDigest_.mix(actor);
    }

    /**
     * The digest of the event queue's churn: every schedule, execute
     * and cancel, every policy choice, and the perturbation seed. Two
     * runs with equal values ran the same schedule; see
     * tests/test_determinism.cc.
     */
    const DeterminismDigest &scheduleDigest() const { return scheduleDigest_; }

    /**
     * The digest of what the simulation did: every noteDigest record
     * and nothing else, so a change that alters only the event
     * structure leaves it equal.
     */
    const DeterminismDigest &semanticDigest() const { return semanticDigest_; }

    /**
     * Set the schedule-perturbation seed. Zero (the default) restores
     * exact insertion-order tie-breaking — bit-identical to a simulator
     * that never called this. A non-zero seed reorders same-timestamp
     * events pseudo-randomly (deterministically per seed) and folds a
     * "perturb" record into the schedule digest so perturbed and
     * unperturbed runs can never be confused.
     *
     * Must be called before any event is scheduled, so a run's whole
     * schedule is governed by one seed.
     */
    void setPerturbation(uint64_t seed);

    /** The active perturbation seed (0 = insertion order). */
    uint64_t perturbation() const { return perturbSeed_; }

    /**
     * Install @p policy (borrowed, not owned) as the same-instant
     * tie-break; replaces any perturbation policy. nullptr restores
     * insertion order. Events queued on lanes, and the pending polls of
     * live chains, move onto the heap; dead timers are dropped.
     */
    void setPolicy(SchedulePolicy *policy);

    /** The active policy (nullptr = insertion order). */
    SchedulePolicy *policy() const { return policy_; }

    /** Decision points hit so far (ready sets with >= 2 events). */
    uint64_t decisionPoints() const { return decisions_; }

    /**
     * Cap the number of further step()s this simulator will execute
     * (0 = unlimited). Exploration uses this to cut off runaway or
     * livelocked schedules.
     */
    void setStepBudget(uint64_t steps);

    /** True when the step budget stopped execution with events pending. */
    bool budgetExhausted() const { return budgetHit_; }

    /**
     * True when a detected deadlock stopped execution: step() refuses
     * to run once the wait-for graph records a deadlock cycle, since
     * spinning lock acquisitions keep the queue busy forever otherwise.
     */
    bool deadlockHalted() const { return !graph_.deadlocks().empty(); }

    /** The wait-for graph fed by the sync and notification layers. */
    WaitGraph &waitGraph() { return graph_; }

    /**
     * Coroutines parked with no wakeup pending, excluding daemon
     * service loops. A drained queue with this non-zero means "blocked
     * forever", not "all done" — tests assert zero at teardown.
     */
    size_t blockedTaskCount() const { return graph_.blockedCount(); }

    /**
     * True when the run genuinely completed: no live events pending and
     * no coroutine blocked forever.
     */
    bool
    allDone() const
    {
        return heap_.empty() && chains_.empty() && blockedTaskCount() == 0;
    }

    /**
     * Override the ambient dependency hint for a scope. Events
     * scheduled inside the scope — and, transitively, events scheduled
     * while *they* execute — carry @p hint. Use only in non-coroutine
     * callback contexts: a scope held across co_await would leak the
     * hint to unrelated events.
     */
    class HintScope
    {
      public:
        HintScope(Simulator &sim, const DepHint &hint)
            : sim_(sim), prev_(sim.currentHint_)
        {
            sim.currentHint_ = hint;
        }
        HintScope(const HintScope &) = delete;
        HintScope &operator=(const HintScope &) = delete;
        ~HintScope() { sim_.currentHint_ = prev_; }

      private:
        Simulator &sim_;
        DepHint prev_;
    };

  private:
    /**
     * One pool slot. A slot is free or running (heapPos kNotQueued),
     * queued in the heap (heapPos indexes heap_), queued behind its
     * lane's head (kInLane, and seq and lane say where), or a cancelled
     * timer waiting to reach its lane's front (kDead); gen advances each
     * time the slot is freed.
     */
    struct Event
    {
        Callback fn;
        DepHint hint;
        uint32_t gen = 0;
        uint32_t heapPos = kNotQueued;
        uint64_t seq = 0;
        LaneId lane = kNoLane;
    };

    /**
     * Heap entry: the (when, seq) ordering key plus the event's slot and
     * the lane it was queued on, if any.
     */
    struct HeapEntry
    {
        Time when;
        uint64_t seq;
        uint32_t slot;
        LaneId lane;

        bool
        operator<(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };
    static_assert(sizeof(HeapEntry) == 24);

    /**
     * An elided poll: its key, inline so polls sort without touching
     * their chains, and its chain.
     */
    struct ChainEntry
    {
        Time when;
        uint64_t seq;
        PollChain *chain;

        bool
        operator<(const ChainEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };
    static_assert(sizeof(ChainEntry) == 24);

    /**
     * A lane: the FIFO of its events behind the one in the heap, kept in
     * a ring whose capacity is zero or a power of two. Its front entry,
     * when it has one, is live.
     */
    struct Lane
    {
        std::vector<HeapEntry> ring;
        size_t first = 0; ///< Ring index of the oldest queued entry.
        size_t size = 0;
        size_t dead = 0;         ///< Cancelled timers among the entries.
        Time last = 0;           ///< Latest time scheduled on the lane.
        bool headQueued = false; ///< Its earliest event sits in the heap.

        const HeapEntry &front() const { return ring[first]; }

        HeapEntry
        pop()
        {
            HeapEntry e = ring[first];
            first = (first + 1) & (ring.size() - 1);
            --size;
            return e;
        }

        void append(const HeapEntry &e);
    };

    static constexpr uint32_t kNotQueued = UINT32_MAX;
    static constexpr uint32_t kDead = UINT32_MAX - 1;
    static constexpr uint32_t kInLane = UINT32_MAX - 2;
    static constexpr LaneId kNoLane = UINT32_MAX;
    // Slots live in fixed-size chunks that never move, so a callback
    // runs in place even when the events it schedules grow the pool.
    static constexpr uint32_t kChunkBits = 8;
    static constexpr uint32_t kChunkMask = (1u << kChunkBits) - 1;

    Event &
    event(uint32_t slot)
    {
        return chunks_[slot >> kChunkBits][slot & kChunkMask];
    }

    /** True when an event or an elided poll is due at or before @p limit. */
    bool
    dueBy(Time limit) const
    {
        return (!heap_.empty() && heap_[0].when <= limit) ||
               (!chains_.empty() && chains_[chainHead_].when <= limit);
    }

    /** Live chains: elided polls pending. */
    size_t liveChains() const { return chains_.size() - chainHead_; }

    uint32_t
    allocSlot()
    {
        if (freeSlots_.empty()) {
            return growPool();
        }
        uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }

    /**
     * A free slot with @p fn built in it. A copy that throws leaves the
     * slot empty and out of use, nothing worse.
     */
    template <typename F>
    uint32_t
    build(F &&fn)
    {
        uint32_t slot = allocSlot();
        event(slot).fn.emplace(std::forward<F>(fn));
        return slot;
    }

    uint32_t growPool();
    void freeSlot(uint32_t slot);
    /** Queue the event built in @p slot at (when, seq), with its record. */
    EventId push(uint32_t slot, Time when, uint64_t seq, LaneId lane);
    EventId enqueue(uint32_t slot, Time when, uint64_t seq,
                    const DepHint &hint, LaneId lane);
    /** Where an event at @p when on @p lane queues: there, or the heap. */
    LaneId laneFor(LaneId lane, Time when);
    /** The timer lane of @p delay, opened on first use. */
    LaneId timerLane(Duration delay);
    /** Take heap entry @p pos out; a lane head hands over to the next. */
    void unqueue(size_t pos);
    /** Free the dead timers at @p lane's front, so its front is live. */
    void dropDeadFront(Lane &lane);
    void pruneReserved();
    void heapPush(const HeapEntry &e);
    void heapRemove(size_t pos);
    void siftUp(size_t pos, const HeapEntry &e);
    void siftDown(size_t pos, const HeapEntry &e);
    void place(size_t pos, const HeapEntry &e);
    void insertPoll(const ChainEntry &e);
    void dropPoll(size_t pos);
    size_t pollPos(const PollChain &c) const;
    void queueNextPoll(PollChain &c, bool elide);
    void queuePoll(PollChain &c, Time when, uint64_t seq);
    void stepPoll();
    bool tieAtTop() const;
    size_t pickReady(Time when);

    Time now_ = 0;
    uint64_t nextSeq_ = 1;
    uint64_t runningSeq_ = 0; ///< Seq of the running (or last) event.
    // Times reserve() handed out that the clock may not have reached.
    std::vector<Time> reserved_;
    size_t reservedCap_ = 16; ///< Size at which reserve() prunes.
    uint64_t processed_ = 0;
    uint64_t perturbSeed_ = 0;
    uint64_t decisions_ = 0;
    uint64_t stepBudgetEnd_ = 0; ///< processed_ ceiling; 0 = unlimited.
    bool budgetHit_ = false;
    DeterminismDigest scheduleDigest_;
    DeterminismDigest semanticDigest_;
    SchedulePolicy *policy_ = nullptr;
    std::unique_ptr<PerturbPolicy> ownedPerturb_;
    DepHint currentHint_;
    WaitGraph graph_;
    // Declared after graph_ so pending callbacks are destroyed while
    // the wait graph they may report to still exists.
    std::vector<std::unique_ptr<Event[]>> chunks_;
    uint32_t slotsUsed_ = 0; ///< Slots ever handed out.
    std::vector<uint32_t> freeSlots_;
    // Indexed 4-ary min-heap on (when, seq) over queued slots: every
    // plain event, and the earliest event of each lane.
    std::vector<HeapEntry> heap_;
    std::vector<Lane> lanes_;
    size_t laneBacklog_ = 0; ///< Entries in lane FIFOs.
    size_t deadTimers_ = 0;  ///< Cancelled timers among them.
    // The timer lane of each delay scheduleTimer has seen.
    std::vector<std::pair<Duration, LaneId>> timerLanes_;
    // The elided polls of live chains, one per chain, sorted on (when,
    // seq) from chainHead_; the entries before it have run. Empty when
    // no chain is live.
    std::vector<ChainEntry> chains_;
    size_t chainHead_ = 0;
    // Scratch buffers reused across decision points.
    std::vector<size_t> readyPos_;
    std::vector<ReadyChoice> ready_;
};

} // namespace remora::sim
