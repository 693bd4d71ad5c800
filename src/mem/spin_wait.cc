#include "mem/spin_wait.h"

#include "util/panic.h"

namespace remora::mem {

SpinWait::SpinWait(sim::Simulator &sim, AddressSpace &space, Vaddr va,
                   uint32_t want, sim::Time deadline, sim::Duration first,
                   sim::Duration cap)
    : sim_(sim), space_(space), va_(va), want_(want)
{
    chain_.interval = first;
    chain_.cap = cap;
    chain_.deadline = deadline;
    chain_.fn = [this] { poll(); };
}

SpinWait::~SpinWait()
{
    if (watching_) {
        space_.unwatchWord();
    }
    sim_.cancel(chain_);
}

bool
SpinWait::settled()
{
    auto word = space_.readWord(va_);
    REMORA_ASSERT(word.ok());
    matched_ = word.value() == want_;
    return matched_ || sim_.now() >= chain_.deadline;
}

void
SpinWait::await_suspend(std::coroutine_handle<> h)
{
    waiter_ = h;
    // Only a store can change what a poll reads, and the watch sees every
    // store, so its wake keeps the chain exact.
    watching_ = !space_.hasAccessObserver() &&
                space_.watchWord(va_, [this] { sim_.wake(chain_); });
    sim_.schedulePoll(chain_, watching_);
}

void
SpinWait::poll()
{
    if (!settled()) {
        sim_.schedulePoll(chain_, watching_);
        return;
    }
    if (watching_) {
        space_.unwatchWord();
        watching_ = false;
    }
    waiter_.resume(); // ends the co_await, destroying this awaiter
}

} // namespace remora::mem
