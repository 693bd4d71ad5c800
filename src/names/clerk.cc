#include "names/clerk.h"

#include <algorithm>

#include "mem/spin_wait.h"
#include "rmem/race_detector.h"
#include "util/bytes.h"
#include "util/panic.h"

namespace remora::names {

namespace {

/** Scratch-segment layout: read-probe slots, then control-transfer area. */
constexpr uint32_t kScratchBytes = 4096;
constexpr uint32_t kProbeSlots = 32;
constexpr uint32_t kCtArea = 2048;
constexpr uint32_t kCtSlots = 16;
constexpr uint32_t kCtSlotBytes = 128;

/** Request-segment size (one in-flight lookup request record). */
constexpr uint32_t kRequestBytes = 128;

/** Bytes of a control-transfer request's NUL-padded name field. */
constexpr uint32_t kCtNameBytes = 48;

/** A control-transfer lookup request, written to the peer's segment. */
struct CtRequest
{
    uint32_t seq = 0;
    /** Where the reply goes: the requester's scratch segment... */
    rmem::ImportedSegment reply;
    /** ...at this offset. */
    uint32_t replyOff = 0;
    std::string name;
};

template <typename Io, util::MaybeConst<CtRequest> T>
void
layout(Io &io, T &req)
{
    io.u32(req.seq);
    io.u8(req.reply.descriptor);
    io.pad(1);
    io.u16(req.reply.generation);
    io.u32(req.replyOff);
    io.u32(req.reply.size);
    io.text(req.name, kCtNameBytes);
}

/**
 * A control-transfer reply: the request's seq, whether the name was
 * found, and the record's handle fields (zeros when not found). The
 * name is omitted: the requester asked for it, so echoing it back
 * would only push the reply past one cell.
 */
struct CtReply
{
    uint32_t seq = 0;
    bool found = false;
    NameRecord rec;
};

template <typename Io, util::MaybeConst<CtReply> T>
void
layout(Io &io, T &reply)
{
    io.u32(reply.seq);
    io.u32(reply.found);
    handleLayout(io, reply.rec);
}

/** Encoded bytes of a CtReply. */
constexpr uint32_t kCtReplyBytes = 20;

// Calibrated costs of the name-service software path (Table 3).

/** User -> kernel system call (trap + argument copy). */
constexpr sim::Duration kKernelCall = sim::usec(35);
/** Clerk-side registry insertion (hash, probe, record write). */
constexpr sim::Duration kClerkInsert = sim::usec(30);
/** Clerk-side lookup (hash, probe, compare). */
constexpr sim::Duration kClerkLookup = sim::usec(40);
/** Kernel-side export work: pinning, tables, generation assignment. */
constexpr sim::Duration kExportKernelWork = sim::usec(455);
/** Kernel-side revoke work: unpin, table teardown. */
constexpr sim::Duration kRevokeKernelWork = sim::usec(110);
/** Parsing/validating one fetched record (on a hit). */
constexpr sim::Duration kRecordParse = sim::usec(15);
/** Flag/name comparison per probe (miss path). */
constexpr sim::Duration kProbeCompare = sim::usec(4);

/** Poll interval while spin-waiting on control-transfer replies. */
constexpr sim::Duration kPollInterval = sim::usec(2);

} // namespace

NameClerk::NameClerk(rmem::RmemEngine &engine, const NameClerkParams &params)
    : engine_(engine), params_(params),
      process_(engine.node().spawnProcess("name-clerk")),
      lrpc_(engine.node().cpu())
{
    uint32_t registryBytes = params_.buckets * NameRecord::kBytes;
    registryBase_ = process_.space().allocRegion(registryBytes);
    scratchBase_ = process_.space().allocRegion(kScratchBytes);
    requestBase_ = process_.space().allocRegion(kRequestBytes);

    auto reg = engine_.exportSegment(
        process_, registryBase_, registryBytes,
        rmem::Rights::kRead | rmem::Rights::kWrite | rmem::Rights::kCas,
        rmem::NotifyPolicy::kNever, "names.registry");
    auto scratch = engine_.exportSegment(
        process_, scratchBase_, kScratchBytes, rmem::Rights::kWrite,
        rmem::NotifyPolicy::kNever, "names.scratch");
    auto request = engine_.exportSegment(
        process_, requestBase_, kRequestBytes, rmem::Rights::kWrite,
        rmem::NotifyPolicy::kConditional, "names.request");
    if (!reg.ok() || !scratch.ok() || !request.ok()) {
        REMORA_FATAL("name clerk failed to export well-known segments");
    }
    registryHandle_ = reg.value();
    scratchHandle_ = scratch.value();
    requestHandle_ = request.value();

    // The bootstrap convention: these slots are reserved cluster-wide.
    REMORA_ASSERT(registryHandle_.descriptor == kRegistryDescriptor);
    REMORA_ASSERT(scratchHandle_.descriptor == kScratchDescriptor);
    REMORA_ASSERT(requestHandle_.descriptor == kRequestDescriptor);

    engine_.channel(requestHandle_.descriptor)
        ->setSignalHandler(
            [this](const rmem::Notification &n) { onLookupRequest(n); });

    if (rmem::RaceDetector::on()) {
        // Declare the protocol's ordering words to the race detector.
        // Each registry bucket's flag word is the record's publication
        // point (body first, flag last — see localInsert), and each
        // control-transfer reply slot leads with the sequence word the
        // requester spins on. Everything else in these segments is
        // plain data whose ordering must derive from those words.
        auto &det = rmem::RaceDetector::instance();
        net::NodeId self = engine_.node().id();
        for (uint32_t b = 0; b < params_.buckets; ++b) {
            det.markSyncWord(self, registryHandle_.descriptor,
                             b * NameRecord::kBytes);
        }
        for (uint32_t i = 0; i < kCtSlots; ++i) {
            det.markSyncWord(self, scratchHandle_.descriptor,
                             kCtArea + i * kCtSlotBytes);
        }
    }
}

void
NameClerk::addPeer(net::NodeId node)
{
    REMORA_ASSERT(node != engine_.node().id());
    Peer peer;
    peer.registry = rmem::ImportedSegment{
        node, kRegistryDescriptor, 1,
        params_.buckets * NameRecord::kBytes,
        rmem::Rights::kRead | rmem::Rights::kWrite | rmem::Rights::kCas};
    peer.request = rmem::ImportedSegment{node, kRequestDescriptor, 1,
                                         kRequestBytes, rmem::Rights::kWrite};
    peers_[node] = peer;
}

// ----------------------------------------------------------------------
// User operations
// ----------------------------------------------------------------------

sim::Task<util::Result<rmem::ImportedSegment>>
NameClerk::exportByName(mem::Process *owner, mem::Vaddr base, uint32_t size,
                        rmem::Rights rights, rmem::NotifyPolicy policy,
                        std::string name)
{
    stats_.exportsServed.inc();
    if (name.size() > kMaxNameLen) {
        co_return util::Status(util::ErrorCode::kInvalidArgument,
                               "segment name too long");
    }
    auto &cpu = engine_.node().cpu();

    // User -> kernel.
    co_await cpu.use(kKernelCall, sim::CpuCategory::kOther);

    // Kernel: descriptor slot, generation, page pinning.
    auto handle = engine_.exportSegment(*owner, base, size, rights, policy,
                                        name);
    if (!handle.ok()) {
        co_return handle.status();
    }
    co_await cpu.use(kExportKernelWork, sim::CpuCategory::kOther);

    // Kernel -> clerk: ADDNAME local RPC.
    co_await lrpc_.enterCallee();
    co_await cpu.use(kClerkInsert, sim::CpuCategory::kProcExec);
    NameRecord rec;
    rec.flag = RecordFlag::kValid;
    rec.node = engine_.node().id();
    rec.descriptor = handle.value().descriptor;
    rec.rights = rights;
    rec.generation = handle.value().generation;
    rec.size = size;
    rec.name = name;
    util::Status ins = localInsert(rec);
    co_await lrpc_.returnToCaller();

    if (!ins.ok()) {
        engine_.revokeSegment(handle.value().descriptor);
        co_return ins;
    }
    localExports_[name] = handle.value().descriptor;
    co_return handle.value();
}

sim::Task<util::Result<rmem::ImportedSegment>>
NameClerk::import(std::string name, std::optional<net::NodeId> hint,
                  bool forceRemote, std::optional<ProbePolicy> policyOverride)
{
    ProbePolicy policy = policyOverride.value_or(params_.policy);
    stats_.importsServed.inc();
    if (name.size() > kMaxNameLen) {
        co_return util::Status(util::ErrorCode::kInvalidArgument,
                               "segment name too long");
    }
    engine_.node().simulator().noteDigest("names.import", name);
    auto &cpu = engine_.node().cpu();

    co_await cpu.use(kKernelCall, sim::CpuCategory::kOther);

    // Kernel -> clerk: LOOKUPNAME local RPC. A forced remote lookup
    // bypasses the local registry/cache inspection entirely.
    co_await lrpc_.enterCallee();
    if (!forceRemote) {
        co_await cpu.use(kClerkLookup, sim::CpuCategory::kProcExec);
    }

    // 1. Names exported from this very node.
    if (!forceRemote) {
        if (auto rec = localFind(name)) {
            stats_.localHits.inc();
            co_await lrpc_.returnToCaller();
            co_return rec->toHandle();
        }
        // 2. The import cache.
        if (auto it = importCache_.find(name); it != importCache_.end()) {
            stats_.cacheHits.inc();
            // Convert before suspending: a resolve() racing on another
            // coroutine inserts into importCache_ (rehash), which
            // invalidates this iterator.
            rmem::ImportedSegment handle = it->second.record.toHandle();
            co_await lrpc_.returnToCaller();
            co_return handle;
        }
    }

    // 3. Remote resolution, at the hint or across all peers in order.
    std::vector<net::NodeId> targets;
    if (hint && *hint != engine_.node().id()) {
        targets.push_back(*hint);
    } else if (!hint) {
        for (const auto &[id, peer] : peers_) {
            (void)peer;
            targets.push_back(id);
        }
        std::sort(targets.begin(), targets.end());
    }

    for (net::NodeId target : targets) {
        auto resolved = co_await resolveAt(target, name, policy);
        if (resolved.ok()) {
            importCache_[name] = CachedImport{resolved.value(), target};
            co_await lrpc_.returnToCaller();
            co_return resolved.value().toHandle();
        }
        if (resolved.status().code() == util::ErrorCode::kTimeout) {
            // §3.7: silence within the deadline means the peer is gone.
            co_await lrpc_.returnToCaller();
            co_return resolved.status();
        }
    }
    co_await lrpc_.returnToCaller();
    co_return util::Status(util::ErrorCode::kNotFound,
                           "name not registered: " + name);
}

sim::Task<util::Status>
NameClerk::revoke(std::string name)
{
    stats_.deletesServed.inc();
    auto &cpu = engine_.node().cpu();

    co_await cpu.use(kKernelCall, sim::CpuCategory::kOther);

    // Kernel -> clerk: DELETENAME local RPC ("a delete operation merely
    // marks the entry invalid in the local cache", §4.1).
    co_await lrpc_.enterCallee();
    co_await cpu.use(kClerkInsert, sim::CpuCategory::kProcExec);
    bool deleted = localDelete(name);
    co_await lrpc_.returnToCaller();
    if (!deleted) {
        co_return util::Status(util::ErrorCode::kNotFound,
                               "name not exported here: " + name);
    }

    // Kernel: revoke the segment so stale remote handles NAK.
    co_await cpu.use(kRevokeKernelWork, sim::CpuCategory::kOther);
    auto it = localExports_.find(name);
    if (it != localExports_.end()) {
        engine_.revokeSegment(it->second);
        localExports_.erase(it);
    }
    co_return util::Status();
}

sim::Task<void>
NameClerk::refresh()
{
    // Copy the key set: awaiting while iterating the live map is unsafe.
    std::vector<std::string> cached;
    cached.reserve(importCache_.size());
    for (const auto &[name, entry] : importCache_) {
        (void)entry;
        cached.push_back(name);
    }
    for (const std::string &name : cached) {
        auto it = importCache_.find(name);
        if (it == importCache_.end()) {
            continue;
        }
        net::NodeId home = it->second.home;
        rmem::Generation cachedGen = it->second.record.generation;
        auto fresh = co_await probeRemote(home, name, params_.buckets);
        it = importCache_.find(name); // may have changed across the await
        if (it == importCache_.end()) {
            continue;
        }
        if (!fresh.ok() || fresh.value().generation != cachedGen) {
            importCache_.erase(it);
            stats_.refreshPurges.inc();
        } else {
            it->second.record = fresh.value();
        }
    }
}

// ----------------------------------------------------------------------
// Local registry memory operations
// ----------------------------------------------------------------------

uint32_t
NameClerk::bucketOffset(const std::string &name, uint32_t probe) const
{
    uint64_t h = registryHash(name);
    return static_cast<uint32_t>((h + probe) % params_.buckets) *
           NameRecord::kBytes;
}

std::optional<NameRecord>
NameClerk::localFind(const std::string &name)
{
    for (uint32_t probe = 0; probe < params_.buckets; ++probe) {
        uint32_t off = bucketOffset(name, probe);
        std::vector<uint8_t> buf(NameRecord::kBytes);
        util::Status rs = process_.space().read(registryBase_ + off, buf);
        REMORA_ASSERT(rs.ok());
        NameRecord rec = NameRecord::decode(buf);
        if (rec.flag == RecordFlag::kEmpty) {
            return std::nullopt;
        }
        if (rec.flag == RecordFlag::kValid && rec.name == name) {
            return rec;
        }
    }
    return std::nullopt;
}

util::Status
NameClerk::localInsert(const NameRecord &rec)
{
    for (uint32_t probe = 0; probe < params_.buckets; ++probe) {
        uint32_t off = bucketOffset(rec.name, probe);
        auto flag = process_.space().readWord(registryBase_ + off);
        REMORA_ASSERT(flag.ok());
        auto state = static_cast<RecordFlag>(flag.value());
        if (state == RecordFlag::kValid) {
            // Slot taken; also reject duplicate names.
            std::vector<uint8_t> buf(NameRecord::kBytes);
            util::Status rs =
                process_.space().read(registryBase_ + off, buf);
            REMORA_ASSERT(rs.ok());
            if (NameRecord::decode(buf).name == rec.name) {
                return util::Status(util::ErrorCode::kAlreadyExists,
                                    "name already registered: " + rec.name);
            }
            continue;
        }
        // Empty or deleted slot: write the body first, flag word last.
        // The flag word is the record's *release* point: a remote
        // probe that observes kValid acquires everything written
        // before (and including) the flag store, so readers never see
        // a half-written record. Reversing these two stores publishes
        // an unordered body — exactly the bug the race detector's
        // reordered-publish regression test pins down.
        std::vector<uint8_t> buf(NameRecord::kBytes);
        rec.encode(buf);
        util::Status ws = process_.space().write(
            registryBase_ + off + 4,
            std::span<const uint8_t>(buf).subspan(4));
        REMORA_ASSERT(ws.ok());
        ws = process_.space().writeWord(registryBase_ + off,
                                        static_cast<uint32_t>(rec.flag));
        REMORA_ASSERT(ws.ok());
        return util::Status();
    }
    return util::Status(util::ErrorCode::kResource, "registry full");
}

bool
NameClerk::localDelete(const std::string &name)
{
    for (uint32_t probe = 0; probe < params_.buckets; ++probe) {
        uint32_t off = bucketOffset(name, probe);
        std::vector<uint8_t> buf(NameRecord::kBytes);
        util::Status rs = process_.space().read(registryBase_ + off, buf);
        REMORA_ASSERT(rs.ok());
        NameRecord rec = NameRecord::decode(buf);
        if (rec.flag == RecordFlag::kEmpty) {
            return false;
        }
        if (rec.flag == RecordFlag::kValid && rec.name == name) {
            // Flag word first: readers instantly see the tombstone.
            // Tombstoning needs no body ordering (the body is left
            // intact), so writing the release word alone is correct;
            // the next localInsert into this slot re-publishes under
            // the same flag-word-last discipline.
            util::Status ws = process_.space().writeWord(
                registryBase_ + off,
                static_cast<uint32_t>(RecordFlag::kDeleted));
            REMORA_ASSERT(ws.ok());
            return true;
        }
    }
    return false;
}

// ----------------------------------------------------------------------
// Remote resolution
// ----------------------------------------------------------------------

sim::Task<util::Result<NameRecord>>
NameClerk::resolveAt(net::NodeId node, std::string name,
                     ProbePolicy policy)
{
    switch (policy) {
      case ProbePolicy::kProbeOnly: {
        auto r = co_await probeRemote(node, name, params_.buckets);
        co_return r;
      }
      case ProbePolicy::kProbeThenControl: {
        auto r = co_await probeRemote(node, name, params_.probeLimit);
        if (r.ok() ||
            r.status().code() != util::ErrorCode::kResource) {
            co_return r; // found, definitively absent, or failed
        }
        auto ct = co_await controlTransferLookup(node, name);
        co_return ct;
      }
      case ProbePolicy::kControlOnly: {
        auto ct = co_await controlTransferLookup(node, name);
        co_return ct;
      }
    }
    co_return util::Status(util::ErrorCode::kInternal, "bad probe policy");
}

sim::Task<util::Result<NameRecord>>
NameClerk::probeRemote(net::NodeId node, std::string name,
                       uint32_t maxProbes)
{
    auto it = peers_.find(node);
    if (it == peers_.end()) {
        co_return util::Status(util::ErrorCode::kInvalidArgument,
                               "unknown peer node");
    }
    // A copy, not a reference: the readv suspensions below let other
    // coroutines add peers, and an unordered_map rehash would leave a
    // reference dangling.
    const Peer peer = it->second;
    auto &cpu = engine_.node().cpu();

    uint64_t wanted = NameRecord::nameHashOf(name);
    // Windows grow geometrically (1, 4, 16, then kProbeSlots): linear
    // probing almost always resolves on the first bucket, so the first
    // exchange stays a single-cell read; a collision chain costs
    // O(log n) round trips instead of one per probe.
    uint32_t grow = 1;
    for (uint32_t base = 0; base < maxProbes; base += grow, grow =
                                                  std::min(grow * 4,
                                                           kProbeSlots)) {
        uint32_t window = std::min(grow, maxProbes - base);
        // One vectored READ fetches the whole probe window's record
        // prefixes in a single request/response frame: one trap and one
        // round trip where the scalar loop paid one per probe. Each
        // prefix lands in its own scratch slot; the scan below is local.
        std::vector<rmem::BatchBuilder::Read> ops;
        ops.reserve(window);
        for (uint32_t i = 0; i < window; ++i) {
            rmem::BatchBuilder::Read op;
            op.src = peer.registry;
            op.srcOff = bucketOffset(name, base + i);
            op.dstSeg = kScratchDescriptor;
            op.dstOff = i * NameRecord::kBytes;
            op.count = NameRecord::kPrefixBytes;
            ops.push_back(op);
        }
        stats_.remoteReads.inc(); // one wire op per window
        stats_.remoteProbes.inc(window);
        auto outcome =
            co_await engine_.readv(std::move(ops), params_.readTimeout);
        if (!outcome.status.ok()) {
            co_return outcome.status;
        }
        REMORA_ASSERT(outcome.results.size() == window);
        for (uint32_t i = 0; i < window; ++i) {
            const rmem::VectorSubResult &res = outcome.results[i];
            if (res.status != util::ErrorCode::kOk) {
                co_return util::Status(res.status,
                                       "probe read rejected at peer");
            }
            co_await cpu.use(kProbeCompare, sim::CpuCategory::kProcExec);
            uint64_t hash = 0;
            NameRecord rec = NameRecord::decodePrefix(res.data, &hash);
            if (rec.flag == RecordFlag::kEmpty) {
                co_return util::Status(util::ErrorCode::kNotFound,
                                       "name absent at peer: " + name);
            }
            if (rec.flag == RecordFlag::kValid && hash == wanted) {
                // Hit: full record parse/validation before installing it.
                co_await cpu.use(kRecordParse, sim::CpuCategory::kProcExec);
                rec.name = name;
                co_return rec;
            }
            // Collision or tombstone: keep scanning the window.
        }
    }
    co_return util::Status(util::ErrorCode::kResource,
                           "probe budget exhausted for: " + name);
}

sim::Task<util::Result<NameRecord>>
NameClerk::controlTransferLookup(net::NodeId node, std::string name)
{
    auto it = peers_.find(node);
    if (it == peers_.end()) {
        co_return util::Status(util::ErrorCode::kInvalidArgument,
                               "unknown peer node");
    }
    const Peer &peer = it->second;
    stats_.controlTransfers.inc();

    uint32_t seq = ++ctSeq_;
    uint32_t replyOff =
        kCtArea + (seq % kCtSlots) * kCtSlotBytes;

    // Clear the reply slot so the spin-wait can't see a stale sequence.
    std::vector<uint8_t> zeros(kCtSlotBytes, 0);
    util::Status ws =
        process_.space().write(scratchBase_ + replyOff, zeros);
    REMORA_ASSERT(ws.ok());

    util::ByteWriter w(64);
    util::put(w, CtRequest{seq, scratchHandle_, replyOff, name});

    util::Status sent =
        co_await engine_.write(peer.request, 0, w.take(), true);
    if (!sent.ok()) {
        co_return sent;
    }

    // Spin-wait on the reply sequence word (§4.3), at a fixed interval.
    auto &sim = engine_.node().simulator();
    sim::Time deadline = params_.readTimeout > 0
                             ? sim.now() + params_.readTimeout
                             : sim::kTimeMax;
    bool replied = co_await mem::SpinWait(sim, process_.space(),
                                          scratchBase_ + replyOff, seq,
                                          deadline, kPollInterval,
                                          kPollInterval);
    if (!replied) {
        co_return util::Status(util::ErrorCode::kTimeout,
                               "control-transfer lookup timed out");
    }

    std::vector<uint8_t> bytes(kCtReplyBytes);
    util::Status rs =
        process_.space().read(scratchBase_ + replyOff, bytes);
    REMORA_ASSERT(rs.ok());
    util::ByteReader r(bytes);
    CtReply reply = util::get<CtReply>(r);
    if (!reply.found) {
        co_return util::Status(util::ErrorCode::kNotFound,
                               "name absent at peer: " + name);
    }
    reply.rec.flag = RecordFlag::kValid;
    reply.rec.name = name;
    co_return reply.rec;
}

void
NameClerk::onLookupRequest(const rmem::Notification &n)
{
    // Runs as the clerk's signal handler after the dispatch cost; the
    // actual service work happens in a spawned task so it can await.
    [](NameClerk *self, net::NodeId src) -> sim::Task<void> {
        auto &cpu = self->engine_.node().cpu();

        std::vector<uint8_t> bytes(64);
        util::Status rs =
            self->process_.space().read(self->requestBase_, bytes);
        REMORA_ASSERT(rs.ok());
        util::ByteReader r(bytes);
        CtRequest req = util::get<CtRequest>(r);

        co_await cpu.use(kClerkLookup, sim::CpuCategory::kProcExec);
        std::optional<NameRecord> rec = self->localFind(req.name);

        util::ByteWriter w(kCtReplyBytes);
        util::put(w, CtReply{req.seq, rec.has_value(),
                             rec.value_or(NameRecord{})});

        rmem::ImportedSegment reply = req.reply;
        reply.node = src;
        reply.rights = rmem::Rights::kWrite;
        util::Status ws = co_await self->engine_.write(reply, req.replyOff,
                                                       w.take(), false);
        REMORA_ASSERT(ws.ok());
    }(this, n.srcNode)
                        .detach();
}

} // namespace remora::names
