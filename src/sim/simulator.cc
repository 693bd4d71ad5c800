#include "sim/simulator.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "util/panic.h"
#include "util/strings.h"

namespace remora::sim {

namespace {

/** splitmix64: a well-mixed 64-bit permutation for tie-break keys. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** REMORA_PERTURB, parsed once per process (0 when unset or empty). */
uint64_t
envPerturbSeed()
{
    static const uint64_t seed = [] {
        const char *e = std::getenv("REMORA_PERTURB");
        uint64_t v = 0;
        if (e != nullptr && *e != '\0' && !util::parseNumber(e, v)) {
            REMORA_FATAL("REMORA_PERTURB is not a number: '" +
                         std::string(e) + "'");
        }
        return v;
    }();
    return seed;
}

/** Children of heap position p are 4p+1 .. 4p+4. */
constexpr size_t kArity = 4;

} // namespace

size_t
PerturbPolicy::choose(Simulator &, const std::vector<ReadyChoice> &ready)
{
    // Same key function the perturbed heap historically ordered by, so
    // a seeded run's total order (and digest) is unchanged: among the
    // ready set, the minimal (mixed key, id) runs first.
    size_t best = 0;
    uint64_t bestKey = mix64(seed_ ^ (ready[0].id * 0x9e3779b97f4a7c15ull));
    for (size_t i = 1; i < ready.size(); ++i) {
        uint64_t key = mix64(seed_ ^ (ready[i].id * 0x9e3779b97f4a7c15ull));
        if (key < bestKey ||
            (key == bestKey && ready[i].id < ready[best].id)) {
            best = i;
            bestKey = key;
        }
    }
    return best;
}

size_t
RecordReplayPolicy::choose(Simulator &, const std::vector<ReadyChoice> &ready)
{
    size_t idx;
    if (depth_ < prefix_.size()) {
        idx = prefix_[depth_];
        if (idx >= ready.size()) {
            // A prefix recorded against this workload always stays in
            // range; going out of range means the workload is not
            // deterministic between runs.
            REMORA_FATAL("RecordReplayPolicy: choice prefix diverged from "
                         "the workload (nondeterministic workload?)");
        }
    } else if (fallback_) {
        idx = fallback_(ready, depth_);
        REMORA_ASSERT(idx < ready.size());
    } else {
        idx = 0;
    }
    recorded_.push_back(static_cast<uint32_t>(idx));
    ++depth_;
    return idx;
}

Simulator::Simulator()
{
    uint64_t seed = envPerturbSeed();
    if (seed != 0) {
        setPerturbation(seed);
    }
}

void
Simulator::setPerturbation(uint64_t seed)
{
    // A run's whole schedule is governed by one seed; switching with
    // events pending would make the digest meaningless.
    REMORA_ASSERT(heap_.empty() && chains_.empty());
    if (seed == perturbSeed_) {
        return;
    }
    perturbSeed_ = seed;
    if (seed != 0) {
        // Perturbed runs are replayable per seed, but must never alias
        // an unperturbed run's digest.
        scheduleDigest_.mixRecord(now_, "perturb", seed);
        ownedPerturb_ = std::make_unique<PerturbPolicy>(seed);
        policy_ = ownedPerturb_.get();
    } else {
        if (policy_ == ownedPerturb_.get()) {
            policy_ = nullptr;
        }
        ownedPerturb_.reset();
    }
}

void
Simulator::setPolicy(SchedulePolicy *policy)
{
    policy_ = policy;
    if (policy != nullptr) {
        ownedPerturb_.reset();
        // A policy gathers its ready set from the heap alone. Each lane's
        // head is there already; the events behind it join as plain ones.
        for (Lane &lane : lanes_) {
            while (lane.size > 0) {
                HeapEntry e = lane.pop();
                if (event(e.slot).heapPos == kDead) {
                    freeSlot(e.slot);
                    continue;
                }
                e.lane = kNoLane;
                heapPush(e);
            }
            lane.dead = 0;
        }
        laneBacklog_ = 0;
        deadTimers_ = 0;
        // So do the elided polls: each becomes the event it stands for.
        for (size_t i = chainHead_; i < chains_.size(); ++i) {
            const ChainEntry &e = chains_[i];
            e.chain->live = false;
            queuePoll(*e.chain, e.when, e.seq);
        }
        chains_.clear();
        chainHead_ = 0;
    }
}

void
Simulator::setStepBudget(uint64_t steps)
{
    stepBudgetEnd_ = steps == 0 ? 0 : processed_ + steps;
    budgetHit_ = false;
}

uint32_t
Simulator::growPool()
{
    REMORA_ASSERT(slotsUsed_ < kInLane);
    if ((slotsUsed_ & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<Event[]>(size_t{1} << kChunkBits));
    }
    return slotsUsed_++;
}

void
Simulator::freeSlot(uint32_t slot)
{
    Event &ev = event(slot);
    ev.fn.reset();
    ev.heapPos = kNotQueued;
    ++ev.gen;
    freeSlots_.push_back(slot);
}

void
Simulator::place(size_t pos, const HeapEntry &e)
{
    heap_[pos] = e;
    event(e.slot).heapPos = static_cast<uint32_t>(pos);
}

void
Simulator::siftUp(size_t pos, const HeapEntry &e)
{
    while (pos > 0) {
        size_t parent = (pos - 1) / kArity;
        if (!(e < heap_[parent])) {
            break;
        }
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, e);
}

void
Simulator::siftDown(size_t pos, const HeapEntry &e)
{
    size_t n = heap_.size();
    for (;;) {
        size_t first = kArity * pos + 1;
        if (first >= n) {
            break;
        }
        size_t best = first;
        size_t last = std::min(first + kArity, n);
        for (size_t c = first + 1; c < last; ++c) {
            if (heap_[c] < heap_[best]) {
                best = c;
            }
        }
        if (!(heap_[best] < e)) {
            break;
        }
        place(pos, heap_[best]);
        pos = best;
    }
    place(pos, e);
}

void
Simulator::heapPush(const HeapEntry &e)
{
    heap_.push_back(e);
    siftUp(heap_.size() - 1, e);
}

void
Simulator::heapRemove(size_t pos)
{
    event(heap_[pos].slot).heapPos = kNotQueued;
    HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) {
        return;
    }
    if (pos > 0 && last < heap_[(pos - 1) / kArity]) {
        siftUp(pos, last);
    } else {
        siftDown(pos, last);
    }
}

void
Simulator::insertPoll(const ChainEntry &e)
{
    // Search from the back: a poll at its chain's cap interval sorts
    // after every pending one, as no poll is queued further ahead, so
    // most polls append.
    e.chain->live = true;
    chains_.push_back(e);
    size_t pos = chains_.size() - 1;
    while (pos > chainHead_ && e < chains_[pos - 1]) {
        chains_[pos] = chains_[pos - 1];
        --pos;
    }
    chains_[pos] = e;
}

void
Simulator::dropPoll(size_t pos)
{
    chains_[pos].chain->live = false;
    if (pos == chainHead_) {
        ++chainHead_;
        // Reclaim the dead prefix once it outgrows the live entries, so
        // the vector is empty exactly when no chain is live.
        if (chainHead_ >= liveChains()) {
            chains_.erase(chains_.begin(),
                          chains_.begin() + static_cast<ptrdiff_t>(chainHead_));
            chainHead_ = 0;
        }
    } else {
        chains_.erase(chains_.begin() + static_cast<ptrdiff_t>(pos));
    }
}

size_t
Simulator::pollPos(const PollChain &c) const
{
    size_t pos = chainHead_;
    while (chains_[pos].chain != &c) {
        ++pos;
    }
    return pos;
}

void
Simulator::Lane::append(const HeapEntry &e)
{
    if (size == ring.size()) {
        // Unroll the full ring into one twice its size.
        std::vector<HeapEntry> grown(std::max<size_t>(16, 2 * size));
        for (size_t i = 0; i < size; ++i) {
            grown[i] = ring[(first + i) & (ring.size() - 1)];
        }
        ring = std::move(grown);
        first = 0;
    }
    ring[(first + size) & (ring.size() - 1)] = e;
    ++size;
}

bool
Simulator::tieAtTop() const
{
    // The runner-up is one of the root's children, or the next event
    // of the root's lane, which waits behind it in the lane's FIFO; the
    // ready set has two or more events exactly when one of them shares
    // the root's time.
    Time when = heap_[0].when;
    LaneId lane = heap_[0].lane;
    if (lane != kNoLane && lanes_[lane].size > 0 &&
        lanes_[lane].front().when == when) {
        return true;
    }
    size_t last = std::min(1 + kArity, heap_.size());
    for (size_t c = 1; c < last; ++c) {
        if (heap_[c].when == when) {
            return true;
        }
    }
    return false;
}

size_t
Simulator::pickReady(Time when)
{
    // Collect the heap positions of every event at `when`. Heap order
    // means a subtree whose root is later holds nothing at `when`.
    readyPos_.assign(1, 0);
    for (size_t i = 0; i < readyPos_.size(); ++i) {
        size_t first = kArity * readyPos_[i] + 1;
        size_t last = std::min(first + kArity, heap_.size());
        for (size_t c = first; c < last; ++c) {
            if (heap_[c].when == when) {
                readyPos_.push_back(c);
            }
        }
    }
    std::sort(readyPos_.begin(), readyPos_.end(), [this](size_t a, size_t b) {
        return heap_[a].seq < heap_[b].seq;
    });
    ready_.clear();
    for (size_t pos : readyPos_) {
        const HeapEntry &e = heap_[pos];
        ready_.push_back(ReadyChoice{e.seq, event(e.slot).hint});
    }
    size_t chosen = policy_->choose(*this, ready_);
    REMORA_ASSERT(chosen < ready_.size());
    // Every consulted choice lands in the digest, so a replayed choice
    // vector reproduces the run bit-identically.
    scheduleDigest_.mixRecord(when, "choice", chosen);
    return readyPos_[chosen];
}

Simulator::LaneId
Simulator::openLane()
{
    lanes_.emplace_back();
    return static_cast<LaneId>(lanes_.size() - 1);
}

Simulator::LaneId
Simulator::laneFor(LaneId lane, Time when)
{
    REMORA_ASSERT(when >= now_ && when >= lanes_[lane].last);
    lanes_[lane].last = when;
    return policy_ == nullptr ? lane : kNoLane;
}

Simulator::LaneId
Simulator::timerLane(Duration delay)
{
    for (const auto &[d, lane] : timerLanes_) {
        if (d == delay) {
            return lane;
        }
    }
    timerLanes_.emplace_back(delay, openLane());
    return timerLanes_.back().second;
}

// Inline into push(), which every scheduled event takes.
inline EventId
Simulator::enqueue(uint32_t slot, Time when, uint64_t seq, const DepHint &hint,
                   LaneId lane)
{
    Event &ev = event(slot);
    ev.hint = hint;
    HeapEntry e{when, seq, slot, lane};
    if (lane != kNoLane && std::exchange(lanes_[lane].headQueued, true)) {
        // Never earlier than the lane's head, which sits in the heap.
        ev.heapPos = kInLane;
        ev.seq = seq;
        ev.lane = lane;
        lanes_[lane].append(e);
        ++laneBacklog_;
    } else {
        heapPush(e);
    }
    return (static_cast<uint64_t>(ev.gen) << 32) | (slot + 1u);
}

EventId
Simulator::push(uint32_t slot, Time when, uint64_t seq, LaneId lane)
{
    EventId id = enqueue(slot, when, seq, currentHint_, lane);
    scheduleDigest_.mixRecord(when, "sched", seq);
    return id;
}

void
Simulator::unqueue(size_t pos)
{
    LaneId id = heap_[pos].lane;
    if (id == kNoLane) {
        heapRemove(pos);
        return;
    }
    Lane &lane = lanes_[id];
    if (lane.size == 0) {
        lane.headQueued = false;
        heapRemove(pos);
        return;
    }
    // The lane's next event takes its head's place. It sorts no earlier
    // than the head, so one siftDown restores the heap.
    event(heap_[pos].slot).heapPos = kNotQueued;
    --laneBacklog_;
    siftDown(pos, lane.pop());
    dropDeadFront(lane);
}

void
Simulator::dropDeadFront(Lane &lane)
{
    if (lane.dead == 0) {
        return;
    }
    while (lane.size > 0 && event(lane.front().slot).heapPos == kDead) {
        freeSlot(lane.pop().slot);
        --lane.dead;
        --laneBacklog_;
        --deadTimers_;
    }
}

void
Simulator::schedulePoll(PollChain &c, bool elide)
{
    c.hint = currentHint_;
    queueNextPoll(c, elide && policy_ == nullptr);
}

void
Simulator::queueNextPoll(PollChain &c, bool elide)
{
    Time when = now_ + c.interval;
    c.interval = std::min(2 * c.interval, c.cap);
    uint64_t seq = nextSeq_++;
    scheduleDigest_.mixRecord(when, "sched", seq);
    if (elide && when < c.deadline) {
        insertPoll(ChainEntry{when, seq, &c});
    } else {
        // A poll at or after the deadline may time the wait out.
        queuePoll(c, when, seq);
    }
}

void
Simulator::queuePoll(PollChain &c, Time when, uint64_t seq)
{
    c.event = enqueue(build([&c] { c.fn(); }), when, seq, c.hint, kNoLane);
}

void
Simulator::wake(PollChain &c)
{
    if (!c.live) {
        return;
    }
    size_t pos = pollPos(c);
    ChainEntry e = chains_[pos];
    dropPoll(pos);
    queuePoll(c, e.when, e.seq);
}

void
Simulator::cancel(PollChain &c)
{
    if (!c.live) {
        cancel(c.event);
        return;
    }
    size_t pos = pollPos(c);
    uint64_t seq = chains_[pos].seq;
    dropPoll(pos);
    scheduleDigest_.mixRecord(now_, "cancel", seq);
}

void
Simulator::cancel(EventId id)
{
    uint64_t slotPlusOne = id & 0xffffffffu;
    if (slotPlusOne == 0 || slotPlusOne > slotsUsed_) {
        return;
    }
    auto slot = static_cast<uint32_t>(slotPlusOne - 1);
    Event &ev = event(slot);
    if (ev.gen != static_cast<uint32_t>(id >> 32) || ev.heapPos >= kDead) {
        return; // already ran, running, or cancelled
    }
    uint64_t seq;
    if (ev.heapPos == kInLane) {
        // Behind its lane's head: unlinking it from the ring would cost a
        // search, so it stays there dead until it reaches the front.
        seq = ev.seq;
        ev.fn.reset();
        ev.heapPos = kDead;
        Lane &lane = lanes_[ev.lane];
        ++lane.dead;
        ++deadTimers_;
        dropDeadFront(lane);
    } else {
        seq = heap_[ev.heapPos].seq;
        unqueue(ev.heapPos);
        freeSlot(slot);
    }
    scheduleDigest_.mixRecord(now_, "cancel", seq);
}

bool
Simulator::step()
{
    if (heap_.empty() && chains_.empty()) {
        return false;
    }
    if (deadlockHalted()) {
        return false;
    }
    if (stepBudgetEnd_ != 0 && processed_ >= stepBudgetEnd_) {
        budgetHit_ = true;
        return false;
    }

    if (!chains_.empty() &&
        (heap_.empty() ||
         chains_[chainHead_] <
             ChainEntry{heap_[0].when, heap_[0].seq, nullptr})) {
        stepPoll();
        return true;
    }

    // The default order is the heap's own (when, seq) order; only a
    // policy needs the whole same-instant ready set.
    size_t pos = 0;
    if (tieAtTop() ||
        (!chains_.empty() && chains_[chainHead_].when == heap_[0].when)) {
        ++decisions_;
        if (policy_ != nullptr) {
            pos = pickReady(heap_[0].when);
        }
    }
    HeapEntry top = heap_[pos];
    unqueue(pos);
    REMORA_ASSERT(top.when >= now_);
    now_ = top.when;
    runningSeq_ = top.seq;
    ++processed_;
    scheduleDigest_.mixRecord(now_, "exec", top.seq);
    // The callback runs in place: chunks never move, and the slot is
    // not reusable until freed below.
    Event &ev = event(top.slot);
    // The executing event's hint becomes ambient so events it schedules
    // inherit their causal chain's hint (until a HintScope overrides).
    DepHint prev = std::exchange(currentHint_, ev.hint);
    ev.fn();
    currentHint_ = prev;
    freeSlot(top.slot);
    return true;
}

void
Simulator::stepPoll()
{
    // The poll the first entry stands for would read the word, find it
    // unchanged (a store would have woken the chain) and queue the next
    // poll: take its records and the next poll's key, and run nothing.
    ChainEntry top = chains_[chainHead_];
    if ((!heap_.empty() && heap_[0].when == top.when) ||
        (liveChains() > 1 && chains_[chainHead_ + 1].when == top.when)) {
        ++decisions_;
    }
    REMORA_ASSERT(top.when >= now_);
    now_ = top.when;
    runningSeq_ = top.seq;
    ++processed_;
    scheduleDigest_.mixRecord(now_, "exec", top.seq);
    dropPoll(chainHead_);
    queueNextPoll(*top.chain, true);
}

uint64_t
Simulator::run(Time limit)
{
    uint64_t count = 0;
    while (dueBy(limit) && step()) {
        ++count;
    }
    if (!dueBy(limit)) {
        // Every key up to the limit is behind us, including the
        // reserved keys of deferred events that lapsed: the clock ends
        // where running them would have left it.
        for (Time when : reserved_) {
            if (when > now_ && when <= limit) {
                now_ = when;
            }
        }
        runningSeq_ = nextSeq_;
    }
    return count;
}

void
Simulator::pruneReserved()
{
    // A time the clock has reached can no longer move it.
    std::erase_if(reserved_, [this](Time when) { return when <= now_; });
    reservedCap_ = std::max<size_t>(16, 2 * reserved_.size());
}

} // namespace remora::sim
