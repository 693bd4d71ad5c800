/**
 * @file
 * Unit tests for the simulation engine: event ordering, cancellation,
 * coroutine tasks, one-shot promises, the CPU resource model, and the
 * poll chains behind the spin-wait on a word of memory.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "mem/address_space.h"
#include "mem/phys_mem.h"
#include "mem/spin_wait.h"
#include "sim/cpu.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace remora::sim {
namespace {

// ----------------------------------------------------------------------
// Simulator / event queue
// ----------------------------------------------------------------------

TEST(Simulator, ExecutesInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameInstantRunsInInsertionOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule(100, [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
    }
}

TEST(Simulator, ZeroDelayRunsLaterSameInstant)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(0, [&] {
        order.push_back(1);
        sim.schedule(0, [&] { order.push_back(2); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator sim;
    bool ran = false;
    EventId id = sim.schedule(10, [&] { ran = true; });
    sim.cancel(id);
    sim.run();
    EXPECT_FALSE(ran);
    // Double-cancel and cancel-after-run are harmless.
    sim.cancel(id);
}

TEST(Simulator, CancelIsSelective)
{
    Simulator sim;
    int count = 0;
    sim.schedule(10, [&] { ++count; });
    EventId id = sim.schedule(10, [&] { ++count; });
    sim.schedule(10, [&] { ++count; });
    sim.cancel(id);
    sim.run();
    EXPECT_EQ(count, 2);
}

TEST(Simulator, RunRespectsLimit)
{
    Simulator sim;
    int count = 0;
    sim.schedule(10, [&] { ++count; });
    sim.schedule(20, [&] { ++count; });
    sim.schedule(30, [&] { ++count; });
    uint64_t ran = sim.run(20);
    EXPECT_EQ(ran, 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(sim.now(), 20);
    sim.run();
    EXPECT_EQ(count, 3);
}

TEST(Simulator, StepRunsExactlyOne)
{
    Simulator sim;
    int count = 0;
    sim.schedule(5, [&] { ++count; });
    sim.schedule(6, [&] { ++count; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 100) {
            sim.schedule(1, recurse);
        }
    };
    sim.schedule(1, recurse);
    sim.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(sim.now(), 100);
    EXPECT_EQ(sim.eventsProcessed(), 100u);
}

// ----------------------------------------------------------------------
// Event core: handles, eager cancel, callback storage, decision points
// ----------------------------------------------------------------------

TEST(EventCore, StaleHandleDoesNotCancelTheSlotsNextEvent)
{
    Simulator sim;
    int first = 0;
    int second = 0;
    EventId cancelled = sim.schedule(5, [&] { ++first; });
    sim.cancel(cancelled);
    // The next event reuses the freed slot; the old handle must miss it.
    EventId reused = sim.schedule(5, [&] { ++second; });
    EXPECT_NE(cancelled, reused);
    sim.cancel(cancelled);
    sim.run();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);
    // A handle whose event already ran is just as stale.
    sim.schedule(5, [&] { ++second; });
    sim.cancel(reused);
    sim.run();
    EXPECT_EQ(second, 2);
}

TEST(EventCore, EventCancelsASameInstantSibling)
{
    Simulator sim;
    std::vector<int> order;
    EventId sibling = 0;
    sim.schedule(10, [&] {
        order.push_back(1);
        sim.cancel(sibling);
    });
    sibling = sim.schedule(10, [&] { order.push_back(2); });
    sim.schedule(10, [&] { order.push_back(3); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    EXPECT_EQ(sim.eventsProcessed(), 2u);
}

TEST(EventCore, EventCancellingItselfIsANoOp)
{
    // A running event is no longer pending: cancelling its own handle
    // neither stops it nor leaves a cancel record in the schedule digest.
    auto digestAfter = [](bool selfCancel) {
        Simulator sim;
        int runs = 0;
        EventId self = 0;
        self = sim.schedule(10, [&] {
            ++runs;
            if (selfCancel) {
                sim.cancel(self);
            }
        });
        sim.run();
        EXPECT_EQ(runs, 1);
        return sim.scheduleDigest().value();
    };
    EXPECT_EQ(digestAfter(true), digestAfter(false));
}

/** Counts its own destruction; a capture holds it by unique_ptr. */
struct LifeProbe
{
    explicit LifeProbe(int *destroyed) : destroyed_(destroyed) {}
    LifeProbe(const LifeProbe &) = delete;
    LifeProbe &operator=(const LifeProbe &) = delete;
    ~LifeProbe() { ++*destroyed_; }

  private:
    int *destroyed_;
};

enum class Fate
{
    kRun,
    kCancel,
    kPendingAtTeardown,
};

/**
 * Schedule the callback @p make builds under each fate and check it
 * runs at most once and its capture is destroyed exactly once.
 */
template <typename Make>
void
checkEveryFate(Make make)
{
    for (Fate fate : {Fate::kRun, Fate::kCancel, Fate::kPendingAtTeardown}) {
        int runs = 0;
        int destroyed = 0;
        {
            Simulator sim;
            EventId id = sim.schedule(10, make(&runs, &destroyed));
            EXPECT_EQ(destroyed, 0);
            if (fate == Fate::kRun) {
                sim.run();
                EXPECT_EQ(destroyed, 1);
            } else if (fate == Fate::kCancel) {
                sim.cancel(id);
                EXPECT_EQ(destroyed, 1); // cancel destroys at once
                sim.run();
            }
        }
        EXPECT_EQ(runs, fate == Fate::kRun ? 1 : 0);
        EXPECT_EQ(destroyed, 1);
    }
}

TEST(EventCore, LapsedReservedKeysMoveTheClockLikeTheEventsTheyStandFor)
{
    // Two deferred events reserve keys at 20 and 40 and lapse; real
    // events run at 10 and 50. Each run() must end where running the
    // lapsed events too would have: at 20 under a limit of 30, at 40
    // under 45, and at 50 when drained.
    Simulator sim;
    EventKey at20, at40;
    sim.schedule(0, [&] {
        at20 = sim.reserve(20);
        at40 = sim.reserve(40);
    });
    sim.schedule(10, [] {});
    sim.schedule(50, [] {});
    sim.run(30);
    EXPECT_EQ(sim.now(), 20);
    EXPECT_TRUE(sim.passed(at20));
    EXPECT_FALSE(sim.passed(at40));
    sim.run(45);
    EXPECT_EQ(sim.now(), 40);
    EXPECT_TRUE(sim.passed(at40));
    sim.run();
    EXPECT_EQ(sim.now(), 50);
}

TEST(EventCore, EventQueuedAtAReservedKeyKeepsItsPlace)
{
    // A key reserved before a same-instant sibling was scheduled runs
    // ahead of it, as it would have had it been scheduled at once.
    Simulator sim;
    std::string order;
    sim.schedule(0, [&] {
        EventKey key = sim.reserve(5);
        sim.schedule(5, [&] { order.push_back('b'); });
        sim.scheduleAt(key, [&] { order.push_back('a'); });
    });
    sim.run();
    EXPECT_EQ(order, "ab");
}

TEST(EventCore, MoveOnlyCaptureRunsOnceAndIsDestroyedOnce)
{
    checkEveryFate([](int *runs, int *destroyed) {
        return [probe = std::make_unique<LifeProbe>(destroyed), runs] {
            ++*runs;
        };
    });
}

/** How many of the seven ways to hand an event a callable take @p F. */
template <typename F>
constexpr int
sitesTaking()
{
    int n = 0;
    n += requires(Callback &c, F f) { c.emplace(std::move(f)); };
    n += requires(Simulator &s, F f) { s.schedule(0, std::move(f)); };
    n += requires(Simulator &s, F f) { s.scheduleAt(Time{0}, std::move(f)); };
    n += requires(Simulator &s, F f) {
        s.scheduleAt(EventKey{}, std::move(f));
    };
    n += requires(Simulator &s, F f) {
        s.scheduleAt(Simulator::LaneId{0}, Time{0}, std::move(f));
    };
    n += requires(Simulator &s, F f) { s.scheduleTimer(0, std::move(f)); };
    n += requires(CpuResource &c, F f) {
        c.post(0, CpuCategory::kOther, std::move(f));
    };
    return n;
}

TEST(EventCore, CallbackRefusesCapturesItCannotHoldInline)
{
    // A callback stores every capture inline, so one that is too big or
    // may throw on the move (which relocating it needs) does not
    // compile, whatever the schedule site.
    using Fits = std::array<unsigned char, Callback::kInlineBytes>;
    using TooBig = std::array<unsigned char, Callback::kInlineBytes + 1>;
    auto fits = [pad = Fits{}] { (void)pad; };
    auto tooBig = [pad = TooBig{}] { (void)pad; };
    struct ThrowingMove
    {
        ThrowingMove() = default;
        ThrowingMove(ThrowingMove &&) noexcept(false) {}
        void operator()() {}
    };
    EXPECT_TRUE((std::is_constructible_v<Callback, decltype(fits)>));
    EXPECT_FALSE((std::is_constructible_v<Callback, decltype(tooBig)>));
    EXPECT_FALSE((std::is_constructible_v<Callback, ThrowingMove>));
    EXPECT_EQ(sitesTaking<decltype(fits)>(), 7);
    EXPECT_EQ(sitesTaking<Callback>(), 7);
    EXPECT_EQ(sitesTaking<decltype(tooBig)>(), 0);
    EXPECT_EQ(sitesTaking<ThrowingMove>(), 0);
}

/** Counts the moves and copies made of it into @p moves and @p copies. */
struct MoveCounter
{
    MoveCounter(int *m, int *c) : moves(m), copies(c) {}
    MoveCounter(MoveCounter &&o) noexcept : moves(o.moves), copies(o.copies)
    {
        ++*moves;
    }
    MoveCounter(const MoveCounter &o) : moves(o.moves), copies(o.copies)
    {
        ++*copies;
    }
    MoveCounter &operator=(const MoveCounter &) = delete;

    int *moves;
    int *copies;
};

TEST(EventCore, EveryScheduleSiteMovesTheCallableOnce)
{
    // Each site builds the callable in its event's slot: a lambda handed
    // over as a temporary is moved once on its way there, and never
    // copied. The count is read when the event runs.
    auto check = [](const char *site, auto schedule) {
        SCOPED_TRACE(site);
        Simulator sim;
        CpuResource cpu(sim, "cpu");
        int moves = 0;
        int copies = 0;
        int ran = -1;
        schedule(sim, cpu, [c = MoveCounter(&moves, &copies), &ran] {
            ran = *c.moves + *c.copies;
        });
        sim.run();
        EXPECT_EQ(copies, 0);
        EXPECT_LE(moves, 1);
        EXPECT_EQ(ran, moves);
    };
    check("schedule", [](Simulator &s, CpuResource &, auto fn) {
        s.schedule(5, std::move(fn));
    });
    check("scheduleAt(Time)", [](Simulator &s, CpuResource &, auto fn) {
        s.scheduleAt(5, std::move(fn));
    });
    check("scheduleAt(EventKey)", [](Simulator &s, CpuResource &, auto fn) {
        s.scheduleAt(s.reserve(5), std::move(fn));
    });
    check("scheduleAt(LaneId)", [](Simulator &s, CpuResource &, auto fn) {
        s.scheduleAt(s.openLane(), 5, std::move(fn));
    });
    check("scheduleTimer", [](Simulator &s, CpuResource &, auto fn) {
        s.scheduleTimer(5, std::move(fn));
    });
    check("post", [](Simulator &, CpuResource &cpu, auto fn) {
        cpu.post(5, CpuCategory::kOther, std::move(fn));
    });
}

TEST(EventCore, CancelLeavesNoTombstones)
{
    Simulator sim;
    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i) {
        ids.push_back(sim.schedule(10 + i, [] {}));
    }
    for (size_t i = 0; i < ids.size(); i += 3) {
        sim.cancel(ids[i]);
    }
    EXPECT_EQ(sim.pendingEvents(), 6u);
    EXPECT_EQ(sim.pendingEvents(), sim.livePendingEvents());
    EXPECT_EQ(sim.run(), 6u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_TRUE(sim.allDone());
}

/** Runs the last ready event; records every ready set it is offered. */
class LastReadyPolicy final : public SchedulePolicy
{
  public:
    size_t
    choose(Simulator &, const std::vector<ReadyChoice> &ready) override
    {
        std::vector<uint64_t> ids;
        for (const ReadyChoice &c : ready) {
            ids.push_back(c.id);
        }
        offered.push_back(ids);
        return ready.size() - 1;
    }

    std::vector<std::vector<uint64_t>> offered;
};

TEST(EventCore, DecisionPointsCountTiesWithAndWithoutAPolicy)
{
    // Ready sets: {1,2,3} then {1,2} at t=5, {4,5} at t=7, {6} at t=9.
    auto decisions = [](SchedulePolicy *policy) {
        Simulator sim;
        sim.setPolicy(policy);
        for (Time t : {5, 5, 5, 7, 7, 9}) {
            sim.scheduleAt(t, [] {});
        }
        sim.run();
        return sim.decisionPoints();
    };
    EXPECT_EQ(decisions(nullptr), 3u);
    LastReadyPolicy last;
    EXPECT_EQ(decisions(&last), 3u);
    // Ready ids are insertion sequence numbers, in insertion order.
    EXPECT_EQ(last.offered, (std::vector<std::vector<uint64_t>>{
                                {1, 2, 3}, {1, 2}, {4, 5}}));
}

TEST(EventCore, PolicySeesTheWholeTieAcrossHeapLevels)
{
    // Later events interleaved with the tie spread it over several
    // heap levels; the policy must still be offered every tied event.
    Simulator sim;
    LastReadyPolicy last;
    sim.setPolicy(&last);
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
        sim.scheduleAt(100 + i, [] {});
        sim.scheduleAt(50, [&order, i] { order.push_back(i); });
    }
    sim.run(50);
    ASSERT_EQ(order.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(order[static_cast<size_t>(i)], 19 - i);
    }
    ASSERT_FALSE(last.offered.empty());
    EXPECT_EQ(last.offered.front().size(), 20u);
    EXPECT_EQ(sim.pendingEvents(), 20u);
}

TEST(EventCore, PerturbedTieOrderIsPinned)
{
    // PerturbPolicy keys on ReadyChoice::id, so these orders hold only
    // while ids stay insertion sequence numbers: perturbed schedules
    // (race gate seeds, REMORA_PERTURB repros) keep reproducing.
    const char *expected[] = {"cdefab", "cdeabf", "dbcaef", "cfeabd",
                              "dbfaec", "dbcfae", "fcebda", "dbfcae"};
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Simulator sim;
        sim.setPerturbation(seed);
        std::string order;
        for (char tag : {'a', 'b', 'c', 'd', 'e', 'f'}) {
            sim.schedule(10, [&order, tag] { order.push_back(tag); });
        }
        sim.run();
        EXPECT_EQ(order, expected[seed - 1]) << "seed " << seed;
        EXPECT_EQ(sim.decisionPoints(), 5u);
    }
}

TEST(EventCoreDeathTest, NonNumericPerturbSeedIsFatal)
{
    // The seed is read once per process: re-exec so the child reads it.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ::setenv("REMORA_PERTURB", "abc", 1);
    EXPECT_EXIT({ Simulator sim; }, ::testing::ExitedWithCode(1),
                "REMORA_PERTURB is not a number: 'abc'");
    // Set but empty means unset: the run is unperturbed.
    ::setenv("REMORA_PERTURB", "", 1);
    EXPECT_EXIT(
        {
            Simulator sim;
            std::exit(sim.perturbation() == 0 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
    ::unsetenv("REMORA_PERTURB");
}

// ----------------------------------------------------------------------
// Task coroutines
// ----------------------------------------------------------------------

Task<int>
immediateTask()
{
    co_return 42;
}

Task<int>
delayedTask(Simulator *sim, Duration d)
{
    co_await delay(*sim, d);
    co_return 7;
}

TEST(Task, EagerStartCompletesImmediately)
{
    auto t = immediateTask();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.result(), 42);
}

TEST(Task, DelaySuspendsUntilSimTime)
{
    Simulator sim;
    auto t = delayedTask(&sim, usec(10));
    EXPECT_FALSE(t.done());
    sim.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.result(), 7);
    EXPECT_EQ(sim.now(), usec(10));
}

Task<int>
nestedTask(Simulator *sim)
{
    int a = co_await delayedTask(sim, usec(5));
    int b = co_await delayedTask(sim, usec(5));
    co_return a + b;
}

TEST(Task, AwaitingSubTasksComposes)
{
    Simulator sim;
    auto t = nestedTask(&sim);
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.result(), 14);
    EXPECT_EQ(sim.now(), usec(10));
}

Task<void>
throwingTask(Simulator *sim)
{
    co_await delay(*sim, 1);
    throw std::runtime_error("boom");
}

Task<bool>
catchingTask(Simulator *sim)
{
    try {
        co_await throwingTask(sim);
    } catch (const std::runtime_error &e) {
        co_return std::string(e.what()) == "boom";
    }
    co_return false;
}

TEST(Task, ExceptionsPropagateThroughAwait)
{
    Simulator sim;
    auto t = catchingTask(&sim);
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_TRUE(t.result());
}

TEST(Task, DetachedTaskRunsToCompletion)
{
    Simulator sim;
    int done = 0;
    {
        auto t = [](Simulator *s, int *flag) -> Task<void> {
            co_await delay(*s, usec(3));
            *flag = 1;
        }(&sim, &done);
        t.detach();
    }
    EXPECT_EQ(done, 0);
    sim.run();
    EXPECT_EQ(done, 1);
}

TEST(Task, MoveTransfersOwnership)
{
    Simulator sim;
    auto t1 = delayedTask(&sim, usec(1));
    Task<int> t2 = std::move(t1);
    sim.run();
    ASSERT_TRUE(t2.done());
    EXPECT_EQ(t2.result(), 7);
}

// ----------------------------------------------------------------------
// Promise / Future
// ----------------------------------------------------------------------

TEST(Future, SetBeforeAwaitResolvesImmediately)
{
    Simulator sim;
    Promise<int> p(sim);
    p.set(5);
    auto t = [](Future<int> f) -> Task<int> { co_return co_await f; }(
        p.future());
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.result(), 5);
}

TEST(Future, SetAfterAwaitWakesWaiter)
{
    Simulator sim;
    Promise<int> p(sim);
    auto t = [](Future<int> f) -> Task<int> { co_return co_await f; }(
        p.future());
    sim.run();
    EXPECT_FALSE(t.done());
    p.set(9);
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.result(), 9);
}

TEST(Future, VoidSpecialization)
{
    Simulator sim;
    Promise<void> p(sim);
    bool resumed = false;
    auto t = [](Future<void> f, bool *flag) -> Task<void> {
        co_await f;
        *flag = true;
    }(p.future(), &resumed);
    sim.run();
    EXPECT_FALSE(resumed);
    p.set();
    sim.run();
    EXPECT_TRUE(resumed);
    EXPECT_TRUE(t.done());
}

TEST(Future, NeverSetFutureReportsItsParkSite)
{
    Simulator sim;
    Promise<int> p(sim);
    auto t = [](Future<int> f) -> Task<int> { co_return co_await f; }(
        p.future());
    sim.run();
    EXPECT_EQ(sim.blockedTaskCount(), 1u);
    auto reports = sim.waitGraph().quiescenceReports(sim.now());
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].format(),
              "HANG (blocked-task) at t=0 — coroutine parked forever "
              "(no wakeup pending)\n"
              "  future.wait (one-shot rendezvous)\n");
    p.set(1);
    sim.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(sim.blockedTaskCount(), 0u);
}

// ----------------------------------------------------------------------
// CpuResource
// ----------------------------------------------------------------------

TEST(Cpu, SerializesWorkFcfs)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    std::vector<Time> completions;
    cpu.post(usec(10), CpuCategory::kOther,
             [&] { completions.push_back(sim.now()); });
    cpu.post(usec(5), CpuCategory::kOther,
             [&] { completions.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0], usec(10));
    EXPECT_EQ(completions[1], usec(15));
    EXPECT_EQ(cpu.totalBusy(), usec(15));
}

TEST(Cpu, IdleGapsDoNotAccumulateBusyTime)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    cpu.post(usec(10), CpuCategory::kOther);
    sim.run();
    // Let simulated time pass idle.
    sim.schedule(usec(100), [] {});
    sim.run();
    cpu.post(usec(10), CpuCategory::kOther);
    sim.run();
    EXPECT_EQ(cpu.totalBusy(), usec(20));
    // First burst ended at 10us, the idle marker fired at 110us, and the
    // second burst runs 110-120us; only 20us of busy time accrued.
    EXPECT_EQ(cpu.busyUntil(), usec(110) + usec(10));
}

TEST(Cpu, CategoriesAccumulateIndependently)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    cpu.post(usec(3), CpuCategory::kDataReceive);
    cpu.post(usec(5), CpuCategory::kControlTransfer);
    cpu.post(usec(7), CpuCategory::kDataReceive);
    sim.run();
    EXPECT_EQ(cpu.busyIn(CpuCategory::kDataReceive), usec(10));
    EXPECT_EQ(cpu.busyIn(CpuCategory::kControlTransfer), usec(5));
    EXPECT_EQ(cpu.busyIn(CpuCategory::kProcExec), 0);
    EXPECT_EQ(cpu.totalBusy(), usec(15));
}

TEST(Cpu, ResetAccountingClearsCounters)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    cpu.post(usec(5), CpuCategory::kProcExec);
    sim.run();
    cpu.resetAccounting();
    EXPECT_EQ(cpu.totalBusy(), 0);
    EXPECT_EQ(cpu.busyIn(CpuCategory::kProcExec), 0);
}

TEST(Cpu, CoroutineUseAwaitsCompletion)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    auto t = [](Simulator *s, CpuResource *c) -> Task<Time> {
        co_await c->use(usec(25), CpuCategory::kProcExec);
        co_return s->now();
    }(&sim, &cpu);
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.result(), usec(25));
}

TEST(Cpu, EventDueAtTheCompletionRunsBeforeTheResume)
{
    // The completion (seq 1) runs at 10 us with the plain event (seq 2)
    // still due then, so the resume it schedules (seq 3) runs last.
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    std::string order;
    auto t = [](CpuResource *c, std::string *o) -> Task<void> {
        co_await c->use(usec(10), CpuCategory::kOther);
        o->push_back('r');
    }(&cpu, &order);
    sim.schedule(usec(10), [&order] { order.push_back('e'); });
    sim.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(order, "er");
    EXPECT_EQ(sim.eventsProcessed(), 3u);
}

TEST(Cpu, ResumeRunsInPlaceUnlessAPolicyOrBudgetIsSet)
{
    // Nothing else is due at the completion, so its resume would run
    // next: it runs in place unless a policy or a step budget is set.
    auto events = [](SchedulePolicy *policy, uint64_t budget) {
        Simulator sim;
        sim.setPolicy(policy);
        sim.setStepBudget(budget);
        CpuResource cpu(sim, "cpu");
        auto t = [](CpuResource *c) -> Task<void> {
            co_await c->use(usec(10), CpuCategory::kOther);
        }(&cpu);
        sim.run();
        EXPECT_TRUE(t.done());
        EXPECT_EQ(sim.now(), usec(10));
        return sim.eventsProcessed();
    };
    RecordReplayPolicy insertionOrder;
    EXPECT_EQ(events(nullptr, 0), 1u);
    EXPECT_EQ(events(&insertionOrder, 0), 2u);
    EXPECT_EQ(events(nullptr, 100), 2u);
}

TEST(Cpu, UtilizationOverWindow)
{
    // 50 us of work from 0, then 30 us posted at 90 us that runs past
    // the 100 us window's edge: 60 us of it fall inside the window.
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    cpu.post(usec(50), CpuCategory::kOther);
    sim.schedule(usec(90), [&cpu] {
        cpu.post(usec(30), CpuCategory::kOther);
    });
    sim.run(usec(100) - 1);
    EXPECT_EQ(cpu.totalBusy(), usec(80));
    EXPECT_EQ(cpu.busyAt(usec(100)), usec(60));
    EXPECT_EQ(cpu.busyAt(usec(120)), usec(80));
    EXPECT_EQ(cpu.busyAt(usec(150)), usec(80));
    EXPECT_NEAR(static_cast<double>(cpu.busyAt(usec(100))) /
                    static_cast<double>(usec(100)),
                0.6, 1e-9);
}

TEST(Cpu, CategoryNamesAreStable)
{
    EXPECT_STREQ(cpuCategoryName(CpuCategory::kDataReceive), "data_receive");
    EXPECT_STREQ(cpuCategoryName(CpuCategory::kControlTransfer),
                 "control_transfer");
    EXPECT_STREQ(cpuCategoryName(CpuCategory::kDataReply), "data_reply");
}

// Parameterized: N tasks contending for the CPU finish in FIFO order
// and the total busy time is exact.
class CpuContention : public ::testing::TestWithParam<int>
{};

TEST_P(CpuContention, FifoAndExactAccounting)
{
    int n = GetParam();
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    std::vector<int> finish;
    for (int i = 0; i < n; ++i) {
        cpu.post(usec(2), CpuCategory::kOther,
                 [&finish, i] { finish.push_back(i); });
    }
    sim.run();
    ASSERT_EQ(finish.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(finish[static_cast<size_t>(i)], i);
    }
    EXPECT_EQ(cpu.totalBusy(), usec(2) * n);
}

INSTANTIATE_TEST_SUITE_P(Counts, CpuContention,
                         ::testing::Values(1, 2, 16, 128));

// ----------------------------------------------------------------------
// Lanes
//
// A CpuResource queues its completions on a lane, and scheduleTimer its
// timers on the lane of their delay, so only each lane's earliest event
// sits in the heap. Lanes are off while a policy is installed, so an
// insertion-order RecordReplayPolicy (empty prefix, no fallback) runs
// the same schedule from the heap alone: each schedule below runs both
// ways on fresh simulators, and the runs must agree step by step.
// ----------------------------------------------------------------------

/** What one run of a lane schedule observed. */
struct LaneRun
{
    std::string order;               ///< Event tags, in execution order.
    std::vector<size_t> live;        ///< livePendingEvents() before each step.
    std::vector<uint64_t> decisions; ///< decisionPoints() after each step.
    uint64_t events = 0;
    Time end = 0;
    size_t maxDead = 0; ///< Most dead timers waiting in lanes at once.
};

/**
 * Run the schedule @p build posts on a fresh simulator with two CPUs,
 * under @p policy (nullptr: lanes on).
 */
template <typename Build>
LaneRun
runLaneSchedule(SchedulePolicy *policy, Build build)
{
    Simulator sim;
    sim.setPolicy(policy);
    CpuResource a(sim, "a");
    CpuResource b(sim, "b");
    LaneRun r;
    build(sim, a, b, r.order);
    auto observe = [&] {
        r.live.push_back(sim.livePendingEvents());
        r.maxDead = std::max(r.maxDead,
                             sim.pendingEvents() - sim.livePendingEvents());
    };
    observe();
    while (sim.step()) {
        observe();
        r.decisions.push_back(sim.decisionPoints());
    }
    EXPECT_EQ(sim.pendingEvents(), 0u);
    r.events = sim.eventsProcessed();
    r.end = sim.now();
    return r;
}

/**
 * Require the lane run of @p build to match its insertion-order run;
 * return the most dead timers the lane run held at once.
 */
template <typename Build>
size_t
expectLanesKeepTheHeapOrder(Build build)
{
    LaneRun lanes = runLaneSchedule(nullptr, build);
    RecordReplayPolicy insertionOrder;
    LaneRun heap = runLaneSchedule(&insertionOrder, build);
    EXPECT_EQ(lanes.order, heap.order);
    EXPECT_EQ(lanes.live, heap.live);
    EXPECT_EQ(lanes.decisions, heap.decisions);
    EXPECT_EQ(lanes.events, heap.events);
    EXPECT_EQ(lanes.end, heap.end);
    EXPECT_EQ(heap.maxDead, 0u);
    EXPECT_FALSE(lanes.order.empty());
    return lanes.maxDead;
}

/** A callback that appends @p tag to @p order. */
auto
tagged(std::string &order, char tag)
{
    return [&order, tag] { order.push_back(tag); };
}

TEST(Lanes, CompletionsTieWithPlainEventsAndWithEachOther)
{
    expectLanesKeepTheHeapOrder([](Simulator &sim, CpuResource &a,
                                   CpuResource &b, std::string &order) {
        // p is scheduled before the posts that complete at 10 us and q
        // after them; the zero-cost posts tie inside a's lane.
        sim.schedule(usec(10), tagged(order, 'p'));
        a.post(usec(10), CpuCategory::kOther, tagged(order, 'a'));
        a.post(0, CpuCategory::kOther, tagged(order, 'b'));
        a.post(0, CpuCategory::kOther, tagged(order, 'c'));
        b.post(usec(10), CpuCategory::kOther, tagged(order, 'd'));
        sim.schedule(usec(10), tagged(order, 'q'));
        a.post(usec(5), CpuCategory::kOther, tagged(order, 'e'));
        sim.schedule(usec(15), tagged(order, 'r'));
        b.post(usec(5), CpuCategory::kOther, tagged(order, 'f'));
    });
}

TEST(Lanes, ZeroCostPostsTieInsideOneLane)
{
    // Nothing but the lane's own FIFO ties with its head, so only the
    // lane check in the tie test sees these decision points.
    expectLanesKeepTheHeapOrder(
        [](Simulator &, CpuResource &a, CpuResource &, std::string &order) {
            for (char tag : {'a', 'b', 'c'}) {
                a.post(0, CpuCategory::kOther, tagged(order, tag));
            }
            a.post(usec(1), CpuCategory::kOther, tagged(order, 'd'));
        });
    LaneRun r = runLaneSchedule(
        nullptr,
        [](Simulator &, CpuResource &a, CpuResource &, std::string &order) {
            a.post(0, CpuCategory::kOther, tagged(order, 'a'));
            a.post(0, CpuCategory::kOther, tagged(order, 'b'));
        });
    EXPECT_EQ(r.decisions, (std::vector<uint64_t>{1, 1}));
}

/**
 * A seeded chain of events: each one records its tag and spawns two
 * more until the count runs out. A spawn is a plain event 0, 5 or 10 us
 * later, or a post costing 0, 5 or 10 us on either CPU. With timers, a
 * spawn may also be a timer of 0, 20 or 40 us, and one spawn in three
 * first cancels a timer armed before it, at random: one that already
 * ran, its lane's head, or one behind the head.
 */
class Spawner : public std::enable_shared_from_this<Spawner>
{
  public:
    Spawner(Simulator &sim, CpuResource &a, CpuResource &b,
            std::string &order, uint64_t seed, int count, bool timers)
        : sim_(sim), cpus_{&a, &b}, order_(order), rng_(seed), left_(count),
          timers_(timers)
    {}

    void
    spawn()
    {
        if (left_ == 0) {
            return;
        }
        --left_;
        auto tag = static_cast<char>('!' + left_ % 90);
        auto fn = [self = shared_from_this(), tag] {
            self->order_.push_back(tag);
            self->spawn();
            self->spawn();
        };
        Duration d = usec(5) * rng_.uniformInt(3);
        uint32_t where = rng_.uniformInt(timers_ ? 4 : 3);
        if (timers_ && !armed_.empty() && rng_.uniformInt(3) == 0) {
            sim_.cancel(armed_[rng_.uniformInt(
                static_cast<uint32_t>(armed_.size()))]);
        }
        if (where == 3) {
            armed_.push_back(sim_.scheduleTimer(4 * d, fn));
        } else if (where == 2) {
            sim_.schedule(d, fn);
        } else {
            cpus_[where]->post(d, CpuCategory::kOther, fn);
        }
    }

  private:
    Simulator &sim_;
    CpuResource *cpus_[2];
    std::string &order_;
    Random rng_;
    int left_;
    bool timers_;
    std::vector<EventId> armed_;
};

/** A lane schedule of @p count spawned events from @p seed. */
auto
spawning(uint64_t seed, int count, bool timers = false)
{
    return [seed, count, timers](Simulator &sim, CpuResource &a,
                                 CpuResource &b, std::string &order) {
        auto s = std::make_shared<Spawner>(sim, a, b, order, seed, count,
                                           timers);
        s->spawn();
        s->spawn();
    };
}

TEST(Lanes, SeededSchedulesRunInTheHeapsOrder)
{
    size_t dead = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        expectLanesKeepTheHeapOrder(spawning(seed, 200));
        dead += expectLanesKeepTheHeapOrder(spawning(seed, 200, true));
    }
    // The timer schedules did leave dead entries behind lane heads.
    EXPECT_GT(dead, 0u);
}

TEST(Lanes, InstallingAPolicyMovesQueuedLaneEventsOntoTheHeap)
{
    // Three completions tie at 10 us, two of them queued behind the
    // lane's head. A policy installed then is offered every tied event,
    // including one posted under it.
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    std::string order;
    cpu.post(usec(10), CpuCategory::kOther, tagged(order, 'a'));
    cpu.post(0, CpuCategory::kOther, tagged(order, 'b'));
    cpu.post(0, CpuCategory::kOther, tagged(order, 'c'));
    sim.schedule(usec(10), tagged(order, 'p'));
    LastReadyPolicy last;
    sim.setPolicy(&last);
    EXPECT_EQ(sim.pendingEvents(), 4u);
    cpu.post(0, CpuCategory::kOther, tagged(order, 'd'));
    EXPECT_EQ(sim.pendingEvents(), 5u);
    sim.run();
    EXPECT_EQ(order, "dpcba");
    EXPECT_EQ(last.offered, (std::vector<std::vector<uint64_t>>{
                                {1, 2, 3, 4, 5}, {1, 2, 3, 4}, {1, 2, 3},
                                {1, 2}}));
    // Without the policy the lane queues again.
    sim.setPolicy(nullptr);
    order.clear();
    cpu.post(usec(1), CpuCategory::kOther, tagged(order, 'e'));
    cpu.post(0, CpuCategory::kOther, tagged(order, 'f'));
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.run();
    EXPECT_EQ(order, "ef");
    EXPECT_EQ(sim.decisionPoints(), 5u);
}

TEST(Lanes, TimersTieWithPlainEventsAndWithEachOther)
{
    expectLanesKeepTheHeapOrder([](Simulator &sim, CpuResource &a,
                                   CpuResource &, std::string &order) {
        // Two delays, each with ties inside its lane and with plain
        // events and a CPU completion at 10 us; 'c' is cancelled behind
        // its lane's head, and 'x' as the head of the other lane.
        sim.scheduleTimer(usec(10), tagged(order, 'a'));
        sim.schedule(usec(10), tagged(order, 'p'));
        sim.scheduleTimer(usec(10), tagged(order, 'b'));
        EventId c = sim.scheduleTimer(usec(10), tagged(order, 'c'));
        EventId x = sim.scheduleTimer(usec(4), tagged(order, 'x'));
        sim.scheduleTimer(usec(4), tagged(order, 'y'));
        a.post(usec(10), CpuCategory::kOther, tagged(order, 'q'));
        sim.scheduleTimer(usec(10), tagged(order, 'd'));
        sim.cancel(c);
        sim.cancel(x);
        sim.schedule(usec(6), [&sim, &order] {
            sim.scheduleTimer(usec(4), tagged(order, 'z'));
        });
    });
}

TEST(TimerLanes, DeadInnerTimerIsPendingButNotLive)
{
    // Five timers of one delay: 'a' heads the lane and 'b', 'c', 'd' and
    // 'e' wait behind it. 'd' is cancelled there and stays, dead, until
    // 'b' runs and 'c' takes the head: then 'd' is at the lane's front,
    // where it is dropped.
    Simulator sim;
    std::string order;
    sim.scheduleTimer(usec(10), tagged(order, 'a'));
    sim.scheduleTimer(usec(10), tagged(order, 'b'));
    sim.scheduleTimer(usec(10), tagged(order, 'c'));
    EventId d = sim.scheduleTimer(usec(10), tagged(order, 'd'));
    sim.scheduleTimer(usec(10), tagged(order, 'e'));
    sim.cancel(d);
    EXPECT_EQ(sim.pendingEvents(), 5u);
    EXPECT_EQ(sim.livePendingEvents(), 4u);
    sim.cancel(d); // a second cancel changes nothing
    EXPECT_EQ(sim.livePendingEvents(), 4u);
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(sim.pendingEvents(), 4u);
    EXPECT_EQ(sim.livePendingEvents(), 3u);
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(sim.pendingEvents(), 2u);
    EXPECT_EQ(sim.livePendingEvents(), 2u);
    EXPECT_EQ(sim.run(), 2u);
    EXPECT_EQ(order, "abce");
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_TRUE(sim.allDone());
}

TEST(TimerLanes, CancelledHeadHandsTheHeapToTheNextLiveTimer)
{
    // 'b' is cancelled at the lane's front, so it leaves at once; then
    // 'a', the head, is cancelled and 'c' takes its place in the heap.
    Simulator sim;
    std::string order;
    EventId a = sim.scheduleTimer(usec(10), tagged(order, 'a'));
    EventId b = sim.scheduleTimer(usec(10), tagged(order, 'b'));
    sim.scheduleTimer(usec(10), tagged(order, 'c'));
    sim.schedule(usec(10), tagged(order, 'p'));
    sim.cancel(b);
    EXPECT_EQ(sim.pendingEvents(), 3u);
    EXPECT_EQ(sim.livePendingEvents(), 3u);
    sim.cancel(a);
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.run();
    EXPECT_EQ(order, "cp");
    EXPECT_EQ(sim.decisionPoints(), 1u);
}

TEST(TimerLanes, InstallingAPolicyDropsDeadTimers)
{
    // The live timers behind the head join the heap, the dead one goes,
    // and a timer armed under the policy goes straight onto the heap.
    Simulator sim;
    std::string order;
    sim.scheduleTimer(usec(10), tagged(order, 'a'));
    sim.scheduleTimer(usec(10), tagged(order, 'b'));
    EventId c = sim.scheduleTimer(usec(10), tagged(order, 'c'));
    sim.scheduleTimer(usec(10), tagged(order, 'd'));
    sim.cancel(c);
    LastReadyPolicy last;
    sim.setPolicy(&last);
    EXPECT_EQ(sim.pendingEvents(), 3u);
    EXPECT_EQ(sim.livePendingEvents(), 3u);
    EventId e = sim.scheduleTimer(usec(10), tagged(order, 'e'));
    sim.scheduleTimer(usec(10), tagged(order, 'f'));
    sim.cancel(e);
    EXPECT_EQ(sim.pendingEvents(), 4u);
    sim.run();
    EXPECT_EQ(order, "fdba");
    EXPECT_EQ(last.offered.front(), (std::vector<uint64_t>{1, 2, 4, 6}));
}

// ----------------------------------------------------------------------
// Poll chains
//
// mem::SpinWait polls a word after 2, 4, 8, 16 and then every 32 us
// here, as the eager loop `co_await delay(poll); poll = min(2 * poll,
// cap)` did. Without a policy its polls are elided, and a store to the
// word wakes the pending one. Each schedule below runs both ways: the
// elided run must land on the schedule digest, semantic digest, end
// clock, event count and decision points pinned from the eager loop,
// and agree with its own insertion-order run, in which every poll is an
// event.
// ----------------------------------------------------------------------

TEST(PollChains, ElidedPollsRunNothingUntilWoken)
{
    Simulator sim;
    int polls = 0;
    PollChain c;
    c.interval = usec(2);
    c.cap = usec(8);
    c.fn = [&polls] { ++polls; };
    sim.schedulePoll(c, true);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    // Elided polls at 2, 6, 14 and 22 us.
    EXPECT_EQ(sim.run(usec(25)), 4u);
    EXPECT_EQ(polls, 0);
    EXPECT_EQ(sim.now(), usec(22));
    EXPECT_EQ(c.interval, usec(8));
    EXPECT_FALSE(sim.allDone());
    // The wake queues the poll at 30 us as an event; its fn runs once.
    sim.wake(c);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(polls, 1);
    EXPECT_EQ(sim.now(), usec(30));
    EXPECT_TRUE(sim.allDone());
    EXPECT_EQ(sim.eventsProcessed(), 5u);
}

/** What one spin-wait schedule observed. */
struct SpinRun
{
    uint64_t schedule = 0;
    uint64_t semantic = 0;
    uint64_t events = 0;
    uint64_t decisions = 0;
    Time end = 0;
    /** (time, value) of every store and every wait's end, and probes. */
    std::vector<int64_t> results;
};

/** The schedule a build lays out on one word of a fresh space. */
struct SpinWorld
{
    Simulator &sim;
    mem::AddressSpace &space;
    mem::Vaddr word;
    std::vector<int64_t> &results;
    /** An insertion-order policy a build may install mid-run. */
    SchedulePolicy &later;
};

/**
 * Wait for @p want at @p va, polling after 2, 4, 8, 16 and then every
 * 32 us, and note when the wait ended and how (-1: timed out).
 */
Task<void>
spinner(SpinWorld *w, mem::Vaddr va, uint32_t want, Time deadline)
{
    bool replied = co_await mem::SpinWait(w->sim, w->space, va, want,
                                          deadline, usec(2), usec(32));
    w->sim.noteDigest(replied ? "replied" : "timed out", want);
    w->results.push_back(w->sim.now());
    w->results.push_back(replied ? want : -1);
}

/** Store @p value into @p va @p after from now, and note it. */
void
storeAfter(SpinWorld *w, Duration after, mem::Vaddr va, uint32_t value)
{
    w->sim.schedule(after, [w, va, value] {
        EXPECT_TRUE(w->space.writeWord(va, value).ok());
        w->sim.noteDigest("store", value);
        w->results.push_back(w->sim.now());
        w->results.push_back(value);
    });
}

/** Note the clock and the pending count. */
void
probe(SpinWorld *w)
{
    w->results.push_back(w->sim.now());
    w->results.push_back(static_cast<int64_t>(w->sim.pendingEvents()));
}

/** Run the schedule @p build lays out, under @p policy (nullptr: elided). */
template <typename Build>
SpinRun
runSpin(SchedulePolicy *policy, Build build)
{
    Simulator sim;
    sim.setPolicy(policy);
    mem::PhysMem phys(4);
    mem::AddressSpace space(phys);
    SpinRun r;
    RecordReplayPolicy later;
    SpinWorld w{sim, space, space.allocRegion(mem::kPageBytes), r.results,
                later};
    std::vector<Task<void>> tasks;
    build(&w, tasks);
    sim.run();
    for (const auto &t : tasks) {
        EXPECT_TRUE(t.done());
    }
    r.schedule = sim.scheduleDigest().value();
    r.semantic = sim.semanticDigest().value();
    r.events = sim.eventsProcessed();
    r.decisions = sim.decisionPoints();
    r.end = sim.now();
    return r;
}

/**
 * Require the elided run of @p build to equal the eager loop's pinned
 * @p schedule, @p semantic, @p events, @p decisions and @p end, and its
 * own insertion-order run.
 */
template <typename Build>
void
expectSpinMatchesEagerLoop(Build build, uint64_t schedule, uint64_t semantic,
                           uint64_t events, uint64_t decisions, Time end)
{
    SpinRun elided = runSpin(nullptr, build);
    EXPECT_EQ(elided.schedule, schedule);
    EXPECT_EQ(elided.semantic, semantic);
    EXPECT_EQ(elided.events, events);
    EXPECT_EQ(elided.decisions, decisions);
    EXPECT_EQ(elided.end, end);
    RecordReplayPolicy insertionOrder;
    SpinRun eager = runSpin(&insertionOrder, build);
    EXPECT_EQ(elided.semantic, eager.semantic);
    EXPECT_EQ(elided.events, eager.events);
    EXPECT_EQ(elided.decisions, eager.decisions);
    EXPECT_EQ(elided.end, eager.end);
    EXPECT_EQ(elided.results, eager.results);
    EXPECT_FALSE(elided.results.empty());
}

TEST(PollChains, StoreAtAPollInstantWithASeqBelowThePolls)
{
    // The store at 14 us was scheduled before the poll at 14 us, so it
    // runs first and that poll sees the reply.
    expectSpinMatchesEagerLoop(
        [](SpinWorld *w, std::vector<Task<void>> &tasks) {
            storeAfter(w, usec(14), w->word, 7);
            tasks.push_back(spinner(w, w->word, 7, kTimeMax));
        },
        0xb20bb3cb02fe3594ull, 0xdd1f6e710f68686full, 4, 1, usec(14));
}

TEST(PollChains, StoreAtAPollInstantWithASeqAboveThePolls)
{
    // Scheduled at 10 us, after the poll at 14 us: that poll misses the
    // store, and the next one, at 30 us, sees it.
    expectSpinMatchesEagerLoop(
        [](SpinWorld *w, std::vector<Task<void>> &tasks) {
            w->sim.schedule(usec(10),
                            [w] { storeAfter(w, usec(4), w->word, 7); });
            tasks.push_back(spinner(w, w->word, 7, kTimeMax));
        },
        0x8030ff29d24f0e9bull, 0x0876ef6e65322029ull, 6, 1, usec(30));
}

TEST(PollChains, UnrelatedEventsShareTheResumeInstant)
{
    // The store at 20 us wakes the poll at 30 us, which ties with one
    // event scheduled before it and one after.
    expectSpinMatchesEagerLoop(
        [](SpinWorld *w, std::vector<Task<void>> &tasks) {
            auto other = [w] {
                w->sim.noteDigest("other", 0);
                w->results.push_back(w->sim.now());
            };
            w->sim.schedule(usec(30), other);
            tasks.push_back(spinner(w, w->word, 7, kTimeMax));
            storeAfter(w, usec(20), w->word, 7);
            w->sim.schedule(usec(25),
                            [w, other] { w->sim.schedule(usec(5), other); });
        },
        0x883a84091aaede48ull, 0x44a27a6a5578f799ull, 8, 2, usec(30));
}

TEST(PollChains, DeadlineMidChainTimesTheWaitOut)
{
    // Polls at 2, 6 and 14 us miss; the one at 30 us is past the 20 us
    // deadline, runs as an event and times out. The late store finds no
    // one waiting.
    expectSpinMatchesEagerLoop(
        [](SpinWorld *w, std::vector<Task<void>> &tasks) {
            tasks.push_back(spinner(w, w->word, 7, usec(20)));
            storeAfter(w, usec(40), w->word, 7);
        },
        0x15232656dc8122beull, 0x52cfa30bce133afbull, 5, 0, usec(40));
}

TEST(PollChains, StaleStoreWakesTheWaitWhichWaitsAgain)
{
    // The stale 6 at 10 us wakes the poll at 14 us, which misses; the
    // wait goes on at the interval it had reached, and the 7 stored at
    // 40 us wakes the poll at 62 us.
    expectSpinMatchesEagerLoop(
        [](SpinWorld *w, std::vector<Task<void>> &tasks) {
            tasks.push_back(spinner(w, w->word, 7, kTimeMax));
            storeAfter(w, usec(10), w->word, 6);
            storeAfter(w, usec(40), w->word, 7);
        },
        0x4f7a561a148e2d70ull, 0x36f8570604406f15ull, 7, 0, usec(62));
}

TEST(PollChains, RunLimitStopsBetweenElidedPolls)
{
    // run(10 us) stops between the polls at 6 and 14 us with the chain
    // standing for one pending event; the run then goes on.
    expectSpinMatchesEagerLoop(
        [](SpinWorld *w, std::vector<Task<void>> &tasks) {
            tasks.push_back(spinner(w, w->word, 7, kTimeMax));
            storeAfter(w, usec(50), w->word, 7);
            EXPECT_EQ(w->sim.run(usec(10)), 2u);
            probe(w);
            EXPECT_EQ(w->sim.run(usec(29)), 1u);
            probe(w);
        },
        0xb36b3d9e2942cb1aull, 0xf4ba167052e1ad87ull, 6, 0, usec(62));
}

TEST(PollChains, PolicyInstalledWhileAChainIsLive)
{
    // At 10 us the pending poll at 14 us joins the heap for the new
    // policy, keeping its key; the rest of the wait polls eagerly.
    expectSpinMatchesEagerLoop(
        [](SpinWorld *w, std::vector<Task<void>> &tasks) {
            tasks.push_back(spinner(w, w->word, 7, kTimeMax));
            storeAfter(w, usec(20), w->word, 7);
            w->sim.run(usec(10));
            probe(w);
            w->sim.setPolicy(&w->later);
            probe(w);
        },
        0x7bc7fd0ad81bda52ull, 0x4000f41af7481febull, 5, 0, usec(30));
}

TEST(PollChains, WaitsWithoutTheWatchPollAsEvents)
{
    // A second wait on the space finds the watch taken, and a wait on a
    // space with an access observer must show it every poll: both poll
    // eagerly beside a chain on the first word.
    expectSpinMatchesEagerLoop(
        [](SpinWorld *w, std::vector<Task<void>> &tasks) {
            tasks.push_back(spinner(w, w->word, 7, kTimeMax));
            tasks.push_back(spinner(w, w->word + 4, 8, kTimeMax));
            storeAfter(w, usec(100), w->word + 4, 8);
            storeAfter(w, usec(200), w->word, 7);
        },
        0xb732c057ec524a31ull, 0xabbddcac5db1e2dbull, 19, 7, usec(222));
    int reads = 0;
    SpinRun observed = runSpin(
        nullptr, [&reads](SpinWorld *w, std::vector<Task<void>> &tasks) {
            w->space.setAccessObserver(
                [&reads](bool write, mem::Vaddr, size_t) { reads += !write; });
            tasks.push_back(spinner(w, w->word, 7, kTimeMax));
            storeAfter(w, usec(100), w->word, 7);
        });
    // The first read, and one per poll at 2, 6, 14, 30, 62, 94 and 126
    // us, the last of which sees the store at 100 us.
    EXPECT_EQ(reads, 8);
    EXPECT_EQ(observed.end, usec(126));
}

} // namespace
} // namespace remora::sim
