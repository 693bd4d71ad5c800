/**
 * @file
 * The user-level spin-wait on a word of memory (§4.3): how a Hybrid-1
 * client waits for its reply, and a name clerk for a control-transfer
 * lookup's answer.
 */
#pragma once

#include <coroutine>
#include <cstdint>

#include "mem/address_space.h"
#include "sim/simulator.h"

namespace remora::mem {

/**
 * Awaitable spin-wait on the aligned word at @p va of @p space.
 * `co_await SpinWait(...)` reads the word now, then polls it again
 * after first, 2 * first, 4 * first, ... up to cap between polls. It
 * yields true once a read finds @p want, and false when a read at or
 * after @p deadline (kTimeMax: none) does not.
 *
 * A poll reads one local word and charges no CPU, so until a store
 * touches the word each poll changes nothing but the event queue. The
 * polls run as a sim::PollChain, elided while the space's write watch
 * is sure to wake the chain, so every event keeps its key, its records
 * and its count. Every poll runs as an event while a SchedulePolicy is
 * installed (its ready set must hold every poll), while the space has
 * an access observer (the race detector sees each poll as an acquire),
 * and while another wait holds the space's watch.
 */
class SpinWait
{
  public:
    SpinWait(sim::Simulator &sim, AddressSpace &space, Vaddr va,
             uint32_t want, sim::Time deadline, sim::Duration first,
             sim::Duration cap);
    SpinWait(const SpinWait &) = delete;
    SpinWait &operator=(const SpinWait &) = delete;

    /** Disarms the watch and drops a pending poll. */
    ~SpinWait();

    bool await_ready() { return settled(); }
    void await_suspend(std::coroutine_handle<> h);
    bool await_resume() const { return matched_; }

  private:
    /** Read the word: true on a match, or at or after the deadline. */
    bool settled();

    /** A poll that runs as an event: resume the waiter, or poll again. */
    void poll();

    sim::Simulator &sim_;
    AddressSpace &space_;
    Vaddr va_;
    uint32_t want_;
    sim::PollChain chain_;
    std::coroutine_handle<> waiter_;
    bool matched_ = false;
    bool watching_ = false;
};

} // namespace remora::mem
