#include "dfs/token.h"

#include <algorithm>

#include "rmem/race_detector.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/panic.h"

namespace remora::dfs {

namespace {

/** Retry backoff after a failed acquire while revocation runs. */
constexpr sim::Duration kRetryBackoff = sim::usec(200);

} // namespace

uint32_t
tokenSlotOf(uint64_t key, uint32_t slots)
{
    return static_cast<uint32_t>(util::mix64(key ^ 0x7061636b65747321ull) %
                                 slots);
}

// ----------------------------------------------------------------------
// TokenArea
// ----------------------------------------------------------------------

TokenArea::TokenArea(rmem::RmemEngine &engine, mem::Process &owner,
                     const TokenParams &params)
    : engine_(engine), owner_(owner), params_(params)
{
    uint32_t bytes = tokenAreaBytes(params_);
    base_ = owner_.space().allocRegion(bytes);
    auto h = engine_.exportSegment(
        owner_, base_, bytes,
        rmem::Rights::kRead | rmem::Rights::kWrite | rmem::Rights::kCas,
        rmem::NotifyPolicy::kNever, "dfs.tokens");
    if (!h.ok()) {
        REMORA_FATAL("token area: export failed: " + h.status().toString());
    }
    handle_ = h.value();
    if (rmem::RaceDetector::on()) {
        // Each token slot's leading word is CAS-claimed ownership
        // state — a sync word for the race detector. The holder
        // directory that follows the slots is deliberately *not*
        // marked: registration is a fire-and-forget write that peers
        // must not race with (see TokenClient's constructor), and the
        // detector will rightly flag any schedule that contends
        // before registration lands.
        auto &det = rmem::RaceDetector::instance();
        for (uint32_t s = 0; s < params_.tokenSlots; ++s) {
            det.markSyncWord(handle_.node, handle_.descriptor,
                             s * kTokenSlotBytes);
        }
    }
}

uint32_t
TokenArea::holderOf(uint64_t key) const
{
    uint32_t slot = tokenSlotOf(key, params_.tokenSlots);
    auto word =
        owner_.space().readWord(base_ + slot * kTokenSlotBytes);
    REMORA_ASSERT(word.ok());
    return word.value();
}

// ----------------------------------------------------------------------
// TokenClient
// ----------------------------------------------------------------------

TokenClient::TokenClient(rmem::RmemEngine &engine, mem::Process &owner,
                         const rmem::ImportedSegment &area,
                         const TokenParams &params)
    : engine_(engine), owner_(owner), area_(area), params_(params),
      myTag_(static_cast<uint32_t>(engine.node().id()) + 1)
{
    REMORA_ASSERT(engine.node().id() < kMaxTokenNodes);

    scratchBase_ = owner_.space().allocRegion(mem::kPageBytes);
    auto scratch = engine_.exportSegment(owner_, scratchBase_, 256,
                                         rmem::Rights::kRead,
                                         rmem::NotifyPolicy::kNever,
                                         "tok.scratch");
    REMORA_ASSERT(scratch.ok());
    scratchSeg_ = scratch.value().descriptor;

    revokeBase_ = owner_.space().allocRegion(mem::kPageBytes);
    auto revoke = engine_.exportSegment(owner_, revokeBase_, 128,
                                        rmem::Rights::kWrite,
                                        rmem::NotifyPolicy::kConditional,
                                        "tok.revoke");
    REMORA_ASSERT(revoke.ok());
    revokeHandle_ = revoke.value();
    engine_.channel(revokeHandle_.descriptor)
        ->setSignalHandler(
            [this](const rmem::Notification &n) { onRevokeRequest(n); });

    // Register this client's revocation segment in the holder
    // directory (one fire-and-forget remote write). Peers must not
    // contend before this lands — in practice, before the first
    // event-queue drain after construction.
    util::ByteWriter w(kHolderEntryBytes);
    w.putU8(revokeHandle_.descriptor);
    w.putU8(0);
    w.putU16(revokeHandle_.generation);
    w.putU32(revokeHandle_.size);
    uint32_t dirOff = params_.tokenSlots * kTokenSlotBytes +
                      static_cast<uint32_t>(engine_.node().id()) *
                          kHolderEntryBytes;
    engine_
        .write(area_, dirOff,
               std::vector<uint8_t>(w.bytes().begin(), w.bytes().end()))
        .detach();
}

uint32_t
TokenClient::slotOffset(uint64_t key) const
{
    return tokenSlotOf(key, params_.tokenSlots) * kTokenSlotBytes;
}

sim::Task<util::Status>
TokenClient::acquire(uint64_t key)
{
    if (held_.count(key) != 0) {
        // The common case the paper counts on: the token is cached
        // locally and acquisition costs nothing on the wire.
        ++localHits_;
        co_return util::Status();
    }

    auto &sim = engine_.node().simulator();
    sim::Time deadline = params_.acquireTimeout > 0
                             ? sim.now() + params_.acquireTimeout
                             : sim::kTimeMax;
    bool countedRevoke = false;
    for (;;) {
        rmem::CasOutcome out = co_await engine_.cas(
            area_, slotOffset(key), 0, myTag_, scratchSeg_, 0,
            params_.acquireTimeout);
        if (!out.status.ok()) {
            co_return out.status;
        }
        if (out.success) {
            // Record which key occupies the slot (diagnostics and
            // revocation matching at the holder).
            util::ByteWriter w(8);
            w.putU64(key);
            util::Status ws = co_await engine_.write(
                area_, slotOffset(key) + 8,
                std::vector<uint8_t>(w.bytes().begin(), w.bytes().end()));
            if (!ws.ok()) {
                co_return ws;
            }
            held_.insert(key);
            co_return util::Status();
        }

        uint32_t holder = out.observed;
        if (holder == myTag_) {
            // The slot is already ours via another key that shares it
            // (direct-mapped table): the token covers this key too.
            held_.insert(key);
            co_return util::Status();
        }

        // Contended. Ask the holder to give the token up — the rare
        // control transfer of the protocol.
        if (holder != 0) {
            auto peer = peerRevoke_.find(holder);
            if (peer == peerRevoke_.end()) {
                // Resolve the holder's revocation segment from the
                // directory with one remote read.
                uint32_t dirOff = params_.tokenSlots * kTokenSlotBytes +
                                  (holder - 1) * kHolderEntryBytes;
                rmem::ReadOutcome dir = co_await engine_.read(
                    area_, dirOff, scratchSeg_, 8, kHolderEntryBytes,
                    false, params_.acquireTimeout);
                if (!dir.status.ok()) {
                    co_return dir.status;
                }
                util::ByteReader r(dir.data);
                rmem::ImportedSegment seg;
                seg.node = static_cast<net::NodeId>(holder - 1);
                seg.descriptor = r.getU8();
                r.skip(1);
                seg.generation = r.getU16();
                seg.size = r.getU32();
                seg.rights = rmem::Rights::kWrite;
                peer = peerRevoke_.emplace(holder, seg).first;
            }
            util::ByteWriter w(8);
            w.putU64(key);
            if (!countedRevoke) {
                // Count revoked *acquisitions*; the retry loop may
                // re-send the request while the first is in flight.
                ++revokesSent_;
                countedRevoke = true;
            }
            util::Status ws = co_await engine_.write(
                peer->second, 0,
                std::vector<uint8_t>(w.bytes().begin(), w.bytes().end()),
                /*notify=*/true);
            if (!ws.ok()) {
                co_return ws;
            }
        }

        if (sim.now() >= deadline) {
            co_return util::Status(util::ErrorCode::kTimeout,
                                   "token acquisition timed out");
        }
        co_await sim::delay(sim, kRetryBackoff);
    }
}

sim::Task<util::Status>
TokenClient::release(uint64_t key)
{
    if (held_.count(key) == 0) {
        co_return util::Status(util::ErrorCode::kInvalidArgument,
                               "token not held");
    }
    rmem::CasOutcome out = co_await engine_.cas(
        area_, slotOffset(key), myTag_, 0, scratchSeg_, 4,
        params_.acquireTimeout);
    if (!out.status.ok()) {
        co_return out.status;
    }
    // The slot may be shared by several of our keys (direct-mapped
    // table); releasing it surrenders the token for all of them.
    uint32_t slot = tokenSlotOf(key, params_.tokenSlots);
    for (auto it = held_.begin(); it != held_.end();) {
        if (tokenSlotOf(*it, params_.tokenSlots) == slot) {
            revokeWanted_.erase(*it);
            it = held_.erase(it);
        } else {
            ++it;
        }
    }
    co_return util::Status();
}

void
TokenClient::endUse(uint64_t key)
{
    busy_.erase(key);
    if (revokeWanted_.count(key) != 0) {
        // Deferred revocation: honour it now that the writer is done.
        ++revokesHonoured_;
        revokeWanted_.erase(key);
        [](TokenClient *self, uint64_t k) -> sim::Task<void> {
            auto s = co_await self->release(k);
            (void)s;
        }(this, key)
            .detach();
    }
}

void
TokenClient::onRevokeRequest(const rmem::Notification &n)
{
    (void)n;
    std::vector<uint8_t> buf(8);
    util::Status rs = owner_.space().read(revokeBase_, buf);
    REMORA_ASSERT(rs.ok());
    util::ByteReader r(buf);
    uint64_t wantedKey = r.getU64();

    // The request names the *contender's* key; we hold the token for
    // whichever of our keys shares its slot (direct-mapped table).
    uint32_t slot = tokenSlotOf(wantedKey, params_.tokenSlots);
    uint64_t victim = 0;
    bool found = false;
    for (uint64_t k : held_) {
        if (tokenSlotOf(k, params_.tokenSlots) == slot) {
            victim = k;
            found = true;
            break;
        }
    }
    if (!found) {
        return; // already released; the contender's retry will win
    }
    if (busy_.count(victim) != 0) {
        // "Delay revocation during certain conditions" (§5.1): the
        // writer is mid-operation; release when it finishes.
        revokeWanted_.insert(victim);
        return;
    }
    ++revokesHonoured_;
    [](TokenClient *self, uint64_t k) -> sim::Task<void> {
        auto s = co_await self->release(k);
        (void)s;
    }(this, victim)
        .detach();
}

} // namespace remora::dfs
