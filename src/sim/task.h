/**
 * @file
 * C++20 coroutine integration with the discrete-event simulator.
 *
 * Simulated application code (clients, clerks, servers) is written as
 * Task<T> coroutines so that multi-step protocols read linearly while
 * the layers beneath remain event-callback driven. Three pieces:
 *
 *  - Task<T>: an eagerly-started coroutine. Awaiting it yields its
 *    result; destroying the handle while it still runs detaches it
 *    (fire-and-forget), which is the normal mode for top-level
 *    simulated processes.
 *  - Delay: `co_await sim.delay(d)` suspends for simulated time d.
 *  - Promise<T>/Future<T>: a one-shot rendezvous bridging callback-world
 *    completions (NIC interrupts, CPU grants) into coroutine-world.
 *
 * Resumptions are funneled through the simulator's event queue (never
 * inline from set()), so coroutine wakeup order is governed by the same
 * deterministic (time, insertion) order as every other event.
 */
#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "sim/simulator.h"
#include "util/panic.h"

namespace remora::sim {

template <typename T>
class Task;

namespace detail {

/** State shared by all Task promise specializations. */
struct TaskPromiseBase
{
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    bool detached = false;

    std::suspend_never initial_suspend() noexcept { return {}; }

    void unhandled_exception() noexcept { exception = std::current_exception(); }

    /**
     * At final suspend: transfer control to an awaiting coroutine if one
     * exists; destroy the frame if the task was detached; otherwise stay
     * suspended so the owning Task destructor reaps the frame.
     */
    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            TaskPromiseBase &p = h.promise();
            if (p.continuation) {
                return p.continuation;
            }
            if (p.detached) {
                if (p.exception) {
                    // A detached simulated process died with an uncaught
                    // exception; nothing can observe it, so fail loudly.
                    REMORA_PANIC("detached sim::Task terminated with "
                                 "an unhandled exception");
                }
                h.destroy();
            }
            return std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }
};

template <typename T>
struct TaskPromise : TaskPromiseBase
{
    std::optional<T> value;

    Task<T> get_return_object();

    void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> : TaskPromiseBase
{
    Task<void> get_return_object();

    void return_void() {}
};

} // namespace detail

/**
 * An eagerly-started simulation coroutine returning T.
 *
 * The coroutine body begins executing when called. The returned Task is
 * a move-only owner of the coroutine frame:
 *
 *  - `co_await task` suspends the caller until the task finishes and
 *    yields its value (rethrowing any stored exception);
 *  - letting the Task go out of scope while still running detaches the
 *    coroutine, which keeps running to completion on its own.
 *
 * @tparam T Result type produced with co_return.
 */
template <typename T = void>
class [[nodiscard]] Task
{
  public:
    using promise_type = detail::TaskPromise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}

    Task(Task &&other) noexcept : handle_(std::exchange(other.handle_, {})) {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            release();
            handle_ = std::exchange(other.handle_, {});
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { release(); }

    /** True once the coroutine has run to completion. */
    bool done() const { return !handle_ || handle_.done(); }

    /**
     * Explicitly relinquish ownership, letting the coroutine finish (or
     * have finished) on its own. Equivalent to destruction but makes
     * fire-and-forget intent visible at the call site.
     */
    void detach() { release(); }

    /** Awaiter giving `co_await task` semantics. */
    struct Awaiter
    {
        Handle handle;

        bool await_ready() const noexcept { return handle.done(); }

        void
        await_suspend(std::coroutine_handle<> cont) noexcept
        {
            REMORA_ASSERT(!handle.promise().continuation);
            handle.promise().continuation = cont;
        }

        T
        await_resume()
        {
            auto &p = handle.promise();
            if (p.exception) {
                std::rethrow_exception(p.exception);
            }
            if constexpr (!std::is_void_v<T>) {
                return std::move(*p.value);
            }
        }
    };

    /** Await completion of this task. */
    Awaiter
    operator co_await() const noexcept
    {
        REMORA_ASSERT(handle_);
        return Awaiter{handle_};
    }

    /**
     * Fetch the result of an already-completed task without awaiting
     * (useful from non-coroutine test code after sim.run()).
     */
    T
    result() const
    {
        REMORA_ASSERT(handle_ && handle_.done());
        auto &p = handle_.promise();
        if (p.exception) {
            std::rethrow_exception(p.exception);
        }
        if constexpr (!std::is_void_v<T>) {
            return std::move(*p.value);
        }
    }

  private:
    void
    release()
    {
        if (!handle_) {
            return;
        }
        if (handle_.done()) {
            handle_.destroy();
        } else {
            handle_.promise().detached = true;
        }
        handle_ = {};
    }

    Handle handle_{};
};

namespace detail {

template <typename T>
Task<T>
TaskPromise<T>::get_return_object()
{
    return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void>
TaskPromise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

/** What a one-shot rendezvous stores: std::monostate for T = void. */
template <typename T>
using OneShotValue =
    std::conditional_t<std::is_void_v<T>, std::monostate, T>;

/** Shared state of a one-shot Promise/Future pair. */
template <typename T>
struct OneShotState
{
    Simulator *sim = nullptr;
    std::optional<OneShotValue<T>> value;
    std::coroutine_handle<> waiter;

    void
    park(std::coroutine_handle<> h)
    {
        waiter = h;
        // A parked await with no wakeup pending at quiescence is a
        // coroutine blocked forever; the wait graph tells them apart.
        sim->waitGraph().parked(this, "future.wait (one-shot rendezvous)",
                                false);
    }

    void
    wake()
    {
        if (!waiter) {
            return;
        }
        sim->waitGraph().unparked(this);
        auto h = std::exchange(waiter, {});
        sim->schedule(0, [h] { h.resume(); });
    }
};

} // namespace detail

/**
 * Awaitable one-shot value, completed by the matching Promise<T>
 * (T = void signals completion only).
 *
 * A Future may be awaited by at most one coroutine. Awaiting after
 * completion resumes immediately; awaiting before completion suspends
 * until Promise::set runs, with resumption ordered through the event
 * queue at the completion instant.
 */
template <typename T>
class Future
{
  public:
    Future() = default;
    explicit Future(std::shared_ptr<detail::OneShotState<T>> st)
        : state_(std::move(st))
    {}

    struct Awaiter
    {
        detail::OneShotState<T> *st;

        bool await_ready() const noexcept { return st->value.has_value(); }

        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            REMORA_ASSERT(!st->waiter);
            st->park(h);
        }

        T
        await_resume()
        {
            if constexpr (!std::is_void_v<T>) {
                return std::move(*st->value);
            }
        }
    };

    /** Await delivery of the value. */
    Awaiter
    operator co_await() const noexcept
    {
        REMORA_ASSERT(state_);
        return Awaiter{state_.get()};
    }

  private:
    std::shared_ptr<detail::OneShotState<T>> state_;
};

/**
 * Producer side of a one-shot rendezvous.
 *
 * Created against a Simulator; hand the future() to a coroutine and call
 * set() (once) from callback code when the awaited condition occurs.
 */
template <typename T>
class Promise
{
  public:
    /** Create a fresh one-shot channel on @p sim. */
    explicit Promise(Simulator &sim)
        : state_(std::make_shared<detail::OneShotState<T>>())
    {
        state_->sim = &sim;
    }

    /** The awaitable consumer side. */
    Future<T> future() const { return Future<T>(state_); }

    /**
     * Deliver the value, built from @p args (none for T = void); must
     * be called at most once.
     */
    template <typename... Args>
    void
    set(Args &&...args)
    {
        REMORA_ASSERT(!state_->value);
        state_->value.emplace(std::forward<Args>(args)...);
        state_->wake();
    }

  private:
    std::shared_ptr<detail::OneShotState<T>> state_;
};

/** Awaitable that suspends a coroutine for simulated time. */
struct Delay
{
    Simulator &sim;
    Duration duration;

    bool await_ready() const noexcept { return duration <= 0; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        sim.schedule(duration, [h] { h.resume(); });
    }

    void await_resume() const noexcept {}
};

/** Convenience factory: `co_await delay(sim, usec(10))`. */
inline Delay
delay(Simulator &sim, Duration d)
{
    return Delay{sim, d};
}

} // namespace remora::sim
