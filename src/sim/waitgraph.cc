#include "sim/waitgraph.h"

#include <algorithm>
#include <sstream>

namespace remora::sim {

const char *
HangReport::kindName(Kind k)
{
    switch (k) {
    case Kind::kDeadlock:
        return "deadlock";
    case Kind::kLostWakeup:
        return "lost-wakeup";
    case Kind::kBlockedTask:
        return "blocked-task";
    case Kind::kNonQuiescent:
        return "non-quiescent";
    }
    return "?";
}

std::string
HangReport::signature() const
{
    // Canonical order makes the same cycle entered at a different edge
    // dedupe to one finding.
    std::vector<std::string> sorted = parties;
    std::sort(sorted.begin(), sorted.end());
    std::string sig = kindName(kind);
    for (const auto &p : sorted) {
        sig += '|';
        sig += p;
    }
    return sig;
}

std::string
HangReport::format() const
{
    std::ostringstream os;
    os << "HANG (" << kindName(kind) << ") at t=" << at;
    if (!detail.empty()) {
        os << " — " << detail;
    }
    os << "\n";
    for (const auto &p : parties) {
        os << "  " << p << "\n";
    }
    return os.str();
}

void
WaitGraph::acquired(Entity e, Resource r, const std::string &site)
{
    held_[r] = LockState{e, site};
}

void
WaitGraph::released(Entity e, Resource r)
{
    auto it = held_.find(r);
    if (it != held_.end() && it->second.owner == e) {
        held_.erase(it);
    }
}

bool
WaitGraph::waiting(Entity e, Resource r, const std::string &site, Time now)
{
    waiting_[e] = WaitState{r, site};

    // Follow holder -> wanted-resource -> holder edges from e; a new
    // wait edge can only close a cycle that passes through e itself.
    std::vector<Entity> chain{e};
    Resource want = r;
    for (;;) {
        auto holder = held_.find(want);
        if (holder == held_.end()) {
            return false; // nobody holds it: no cycle (yet)
        }
        Entity next = holder->second.owner;
        if (next == e) {
            break; // cycle closed
        }
        if (std::find(chain.begin(), chain.end(), next) != chain.end()) {
            return false; // cycle not through e; its own edge reported it
        }
        auto w = waiting_.find(next);
        if (w == waiting_.end()) {
            return false; // holder is runnable: no deadlock
        }
        chain.push_back(next);
        want = w->second.resource;
    }

    HangReport rep;
    rep.kind = HangReport::Kind::kDeadlock;
    rep.at = now;
    std::ostringstream detail;
    detail << chain.size() << "-party cycle";
    rep.detail = detail.str();
    for (Entity part : chain) {
        // Every chain entity has a wait edge (the walk required it).
        const WaitState &w = waiting_.at(part);
        std::ostringstream line;
        line << "entity 0x" << std::hex << part << std::dec << " waits "
             << w.site;
        auto holder = held_.find(w.resource);
        if (holder != held_.end()) {
            line << " held by 0x" << std::hex << holder->second.owner
                 << std::dec;
        }
        rep.parties.push_back(line.str());
    }
    if (!seenCycles_.insert(rep.signature()).second) {
        return false; // same cycle reported before
    }
    deadlocks_.push_back(std::move(rep));
    return true;
}

void
WaitGraph::waitDone(Entity e)
{
    waiting_.erase(e);
}

void
WaitGraph::parked(const void *who, const std::string &site, bool daemon)
{
    parked_.insert_or_assign(who, Park{nullptr, site, daemon});
}

void
WaitGraph::parked(const void *who, const char *site, bool daemon)
{
    parked_.insert_or_assign(who, Park{site, {}, daemon});
}

void
WaitGraph::unparked(const void *who)
{
    parked_.erase(who);
}

uint64_t
WaitGraph::channelOpen(std::string label)
{
    uint64_t id = nextChannelId_++;
    channels_.emplace(id, ChannelState{std::move(label), 0, 0, true, false});
    return id;
}

void
WaitGraph::channelLabel(uint64_t id, std::string label)
{
    auto it = channels_.find(id);
    if (it != channels_.end()) {
        it->second.label = std::move(label);
    }
}

void
WaitGraph::channelClose(uint64_t id)
{
    auto it = channels_.find(id);
    if (it != channels_.end()) {
        it->second.open = false;
        it->second.readerParked = false;
    }
}

void
WaitGraph::channelPosted(uint64_t id)
{
    auto it = channels_.find(id);
    if (it != channels_.end()) {
        ++it->second.posted;
    }
}

void
WaitGraph::channelConsumed(uint64_t id)
{
    auto it = channels_.find(id);
    if (it != channels_.end()) {
        ++it->second.consumed;
    }
}

void
WaitGraph::channelReader(uint64_t id, bool present)
{
    auto it = channels_.find(id);
    if (it != channels_.end()) {
        it->second.readerParked = present;
    }
}

size_t
WaitGraph::blockedCount() const
{
    size_t n = 0;
    for (const auto &[who, park] : parked_) {
        if (!park.daemon) {
            ++n;
        }
    }
    return n;
}

std::vector<HangReport>
WaitGraph::quiescenceReports(Time now) const
{
    std::vector<HangReport> out;
    for (const auto &[id, ch] : channels_) {
        if (ch.posted <= ch.consumed) {
            continue;
        }
        // Pending notifications with a parked blocking reader would be
        // a delivery bug, not a lost wakeup — but a drained queue with
        // both cannot happen (the wakeup event would still be pending),
        // so every surplus here is a notification nobody will consume.
        HangReport rep;
        rep.kind = HangReport::Kind::kLostWakeup;
        rep.at = now;
        std::ostringstream detail;
        detail << (ch.posted - ch.consumed) << " pending notification(s), "
               << (ch.open ? "no consumer arrived" : "channel destroyed");
        rep.detail = detail.str();
        rep.parties.push_back("channel " + ch.label);
        out.push_back(std::move(rep));
    }
    for (const auto &[who, park] : parked_) {
        if (park.daemon) {
            continue;
        }
        HangReport rep;
        rep.kind = HangReport::Kind::kBlockedTask;
        rep.at = now;
        rep.detail = "coroutine parked forever (no wakeup pending)";
        rep.parties.push_back(park.staticSite != nullptr ? park.staticSite
                                                         : park.site);
        out.push_back(std::move(rep));
    }
    return out;
}

} // namespace remora::sim
