#include "dfs/server.h"

#include <algorithm>

#include "obs/trace.h"
#include "rpc/marshal.h"
#include "util/panic.h"

namespace remora::dfs {

namespace {

/** Export one cache area and return its handle. */
rmem::ImportedSegment
exportArea(rmem::RmemEngine &engine, mem::Process &proc, mem::Vaddr base,
           uint32_t bytes, const char *name)
{
    auto h = engine.exportSegment(
        proc, base, bytes,
        rmem::Rights::kRead | rmem::Rights::kWrite | rmem::Rights::kCas,
        rmem::NotifyPolicy::kConditional, name);
    if (!h.ok()) {
        REMORA_FATAL(std::string("file server: cannot export area ") + name +
                     ": " + h.status().toString());
    }
    return h.value();
}

} // namespace

FileServer::FileServer(rmem::RmemEngine &engine, FileStore &store,
                       const CacheGeometry &geometry,
                       const ServiceTimes &times,
                       const rpc::Hybrid1Params &hybridParams)
    : engine_(engine), store_(store), geo_(geometry), times_(times),
      process_(engine.node().spawnProcess("file-server")),
      hybrid_(engine, process_, hybridParams)
{
    auto allocArea = [&](CacheArea area, uint32_t bytes, const char *name,
                         rmem::ImportedSegment *handle) {
        size_t i = static_cast<size_t>(area);
        areaBase_[i] = process_.space().allocRegion(bytes);
        areaBytes_[i] = bytes;
        *handle = exportArea(engine_, process_, areaBase_[i], bytes, name);
    };
    allocArea(CacheArea::kData, geo_.dataSlots * kDataSlotBytes, "dfs.data",
              &handles_.data);
    allocArea(CacheArea::kName, geo_.nameBuckets * kNameRecBytes, "dfs.name",
              &handles_.name);
    allocArea(CacheArea::kAttr, geo_.attrBuckets * kAttrRecBytes, "dfs.attr",
              &handles_.attr);
    allocArea(CacheArea::kDir, geo_.dirSlots * kDirSlotBytes, "dfs.dir",
              &handles_.dir);
    allocArea(CacheArea::kLink, geo_.linkSlots * kLinkRecBytes, "dfs.link",
              &handles_.link);
    allocArea(CacheArea::kStat, kStatRecBytes, "dfs.stat", &handles_.stat);

    hybrid_.setHandler([this](net::NodeId src, std::vector<uint8_t> body) {
        return handleBody(src, std::move(body));
    });
}

void
FileServer::start()
{
    hybrid_.start();
}

void
FileServer::registerStats(obs::MetricRegistry &reg,
                          const std::string &prefix) const
{
    reg.add(prefix + ".calls_served", stats_.callsServed);
    reg.add(prefix + ".cache_inserts", stats_.cacheInserts);
    reg.add(prefix + ".cache_evictions", stats_.cacheEvictions);
    reg.add(prefix + ".dirty_blocks_applied", stats_.dirtyBlocksApplied);
    reg.addGauge(prefix + ".pushes_issued",
                 [this] { return static_cast<double>(pushes_); });
}

void
FileServer::attachRpcTransport(rpc::RpcTransport &transport)
{
    // One umbrella procedure; the body's own proc word dispatches.
    transport.registerProc(
        1, [this](net::NodeId src, std::vector<uint8_t> body) {
            return handleBody(src, std::move(body));
        });
}

// ----------------------------------------------------------------------
// Dispatch
// ----------------------------------------------------------------------

sim::Task<std::vector<uint8_t>>
FileServer::handleBody(net::NodeId src, std::vector<uint8_t> body)
{
    (void)src;
    stats_.callsServed.inc();
    rpc::Unmarshal u(body);
    auto proc = static_cast<NfsProc>(u.getU32());
    engine_.node().simulator().noteDigest(
        "dfs.serve",
        static_cast<uint64_t>(src) << 32 | static_cast<uint32_t>(proc));
    // Explicit span: the procedure body suspends on the CPU resource.
    obs::SpanId span = obs::beginSpan(0, engine_.node().name(), "dfs",
                                      nfsProcName(proc), obs::kv("from", src));
    auto &cpu = engine_.node().cpu();

    rpc::Marshal reply;
    auto fail = [&reply](util::ErrorCode code) {
        rpc::Marshal m;
        m.putU32(static_cast<uint32_t>(code));
        return m;
    };

    switch (proc) {
      case NfsProc::kNull: {
        co_await cpu.use(times_.timeFor(proc, 0),
                         sim::CpuCategory::kProcExec);
        reply.putU32(0);
        break;
      }
      case NfsProc::kGetAttr: {
        FileHandle fh = util::get<FileHandle>(u);
        co_await cpu.use(times_.timeFor(proc, 0),
                         sim::CpuCategory::kProcExec);
        auto attr = store_.getattr(fh);
        if (!attr.ok()) {
            reply = fail(attr.status().code());
            break;
        }
        reply.putU32(0);
        util::put(reply, attr.value());
        break;
      }
      case NfsProc::kLookup: {
        FileHandle dir = util::get<FileHandle>(u);
        std::string name = u.getString();
        co_await cpu.use(times_.timeFor(proc, 0),
                         sim::CpuCategory::kProcExec);
        auto child = store_.lookup(dir, name);
        if (!child.ok()) {
            reply = fail(child.status().code());
            break;
        }
        auto attr = store_.getattr(child.value());
        reply.putU32(0);
        util::put(reply, child.value());
        util::put(reply, attr.ok() ? attr.value() : FileAttr{});
        break;
      }
      case NfsProc::kReadLink: {
        FileHandle fh = util::get<FileHandle>(u);
        co_await cpu.use(times_.timeFor(proc, 0),
                         sim::CpuCategory::kProcExec);
        auto target = store_.readlink(fh);
        if (!target.ok()) {
            reply = fail(target.status().code());
            break;
        }
        reply.putU32(0);
        reply.putString(target.value());
        break;
      }
      case NfsProc::kRead: {
        FileHandle fh = util::get<FileHandle>(u);
        uint64_t offset = u.getU64();
        uint32_t count = u.getU32();
        co_await cpu.use(times_.timeFor(proc, count),
                         sim::CpuCategory::kProcExec);
        auto data = store_.read(fh, offset, count);
        if (!data.ok()) {
            reply = fail(data.status().code());
            break;
        }
        auto attr = store_.getattr(fh);
        reply.putU32(0);
        util::put(reply, attr.ok() ? attr.value() : FileAttr{});
        reply.putOpaque(data.value());
        break;
      }
      case NfsProc::kWrite: {
        FileHandle fh = util::get<FileHandle>(u);
        uint64_t offset = u.getU64();
        std::vector<uint8_t> data = u.getOpaque();
        co_await cpu.use(times_.timeFor(proc, data.size()),
                         sim::CpuCategory::kProcExec);
        util::Status ws = store_.write(fh, offset, data);
        if (!ws.ok()) {
            reply = fail(ws.code());
            break;
        }
        // Keep the exported caches coherent with the new contents.
        cacheAttr(fh);
        for (uint64_t b = offset / kBlockBytes;
             b <= (offset + std::max<size_t>(data.size(), 1) - 1) /
                      kBlockBytes;
             ++b) {
            cacheBlock(fh, b);
        }
        auto attr = store_.getattr(fh);
        reply.putU32(0);
        util::put(reply, attr.ok() ? attr.value() : FileAttr{});
        break;
      }
      case NfsProc::kReadDir: {
        FileHandle fh = util::get<FileHandle>(u);
        uint32_t maxBytes = u.getU32();
        auto entries = store_.readdir(fh);
        if (!entries.ok()) {
            co_await cpu.use(times_.timeFor(proc, 0),
                             sim::CpuCategory::kProcExec);
            reply = fail(entries.status().code());
            break;
        }
        // Trim to the requested byte budget, whole entries only.
        std::vector<uint8_t> packed = packDirEntries(entries.value());
        std::vector<DirEntry> trimmed =
            unpackDirEntries(packed, maxBytes);
        co_await cpu.use(times_.timeFor(proc, std::min<uint64_t>(
                                                  packed.size(), maxBytes)),
                         sim::CpuCategory::kProcExec);
        reply.putU32(0);
        util::put(reply, trimmed);
        break;
      }
      case NfsProc::kStatFs: {
        util::get<FileHandle>(u);
        co_await cpu.use(times_.timeFor(proc, 0),
                         sim::CpuCategory::kProcExec);
        reply.putU32(0);
        util::put(reply, store_.statfs());
        break;
      }
      default: {
        reply = fail(util::ErrorCode::kInvalidArgument);
        break;
      }
    }
    obs::endSpan(span);
    co_return reply.take();
}

// ----------------------------------------------------------------------
// Cache-area maintenance
// ----------------------------------------------------------------------

void
FileServer::storeBytes(CacheArea area, uint64_t offset,
                       std::span<const uint8_t> bytes)
{
    size_t i = static_cast<size_t>(area);
    REMORA_ASSERT(offset + bytes.size() <= areaBytes_[i]);
    util::Status s = process_.space().write(areaBase_[i] + offset, bytes);
    REMORA_ASSERT(s.ok());
}

void
FileServer::loadBytes(CacheArea area, uint64_t offset,
                      std::span<uint8_t> out) const
{
    size_t i = static_cast<size_t>(area);
    REMORA_ASSERT(offset + out.size() <= areaBytes_[i]);
    util::Status s = process_.space().read(areaBase_[i] + offset, out);
    REMORA_ASSERT(s.ok());
}

void
FileServer::noteInsert(uint32_t oldFlag, uint64_t oldTag, uint64_t newTag)
{
    stats_.cacheInserts.inc();
    if (oldFlag == kSlotValid && oldTag != newTag) {
        stats_.cacheEvictions.inc();
    }
}

void
FileServer::cacheAttr(FileHandle fh)
{
    auto attr = store_.getattr(fh);
    if (!attr.ok()) {
        return;
    }
    uint32_t bucket = attrBucket(fh.key(), geo_.attrBuckets);
    uint64_t off = static_cast<uint64_t>(bucket) * kAttrRecBytes;

    std::vector<uint8_t> old(kAttrRecBytes);
    loadBytes(CacheArea::kAttr, off, old);
    AttrRecord prev = AttrRecord::decode(old);
    noteInsert(prev.flag, prev.fhKey, fh.key());

    AttrRecord rec;
    rec.flag = kSlotValid;
    rec.fhKey = fh.key();
    rec.attr = attr.value();
    std::vector<uint8_t> buf(kAttrRecBytes);
    rec.encode(buf);
    storeBytes(CacheArea::kAttr, off, buf);
    pushAttrToSubscribers(fh, buf);
}

void
FileServer::cacheName(FileHandle dir, const std::string &name)
{
    auto child = store_.lookup(dir, name);
    if (!child.ok() || name.size() > kMaxCachedNameLen) {
        return;
    }
    auto attr = store_.getattr(child.value());
    uint32_t bucket = nameBucket(dir.key(), name, geo_.nameBuckets);
    uint64_t off = static_cast<uint64_t>(bucket) * kNameRecBytes;

    std::vector<uint8_t> old(kNameRecBytes);
    loadBytes(CacheArea::kName, off, old);
    NameLookupRecord prev = NameLookupRecord::decode(old);
    noteInsert(prev.flag, prev.dirKey ^ util::fnv1a(prev.name),
               dir.key() ^ util::fnv1a(name));

    NameLookupRecord rec;
    rec.flag = kSlotValid;
    rec.dirKey = dir.key();
    rec.childKey = child.value().key();
    rec.childAttr = attr.ok() ? attr.value() : FileAttr{};
    rec.name = name;
    std::vector<uint8_t> buf(kNameRecBytes);
    rec.encode(buf);
    storeBytes(CacheArea::kName, off, buf);
}

void
FileServer::cacheBlock(FileHandle fh, uint64_t blockNo)
{
    auto data = store_.read(fh, blockNo * kBlockBytes, kBlockBytes);
    if (!data.ok()) {
        return;
    }
    uint32_t slot = dataSlot(fh.key(), blockNo, geo_.dataSlots);
    uint64_t off = static_cast<uint64_t>(slot) * kDataSlotBytes;

    std::vector<uint8_t> old(kDataHeaderBytes);
    loadBytes(CacheArea::kData, off, old);
    DataSlotHeader prev = DataSlotHeader::decode(old);
    noteInsert(prev.flag, prev.fhKey ^ prev.blockNo,
               fh.key() ^ blockNo);

    DataSlotHeader hdr;
    hdr.flag = kSlotValid;
    hdr.dirty = 0;
    hdr.fhKey = fh.key();
    hdr.blockNo = blockNo;
    hdr.validBytes = static_cast<uint32_t>(data.value().size());
    std::vector<uint8_t> buf(kDataHeaderBytes);
    hdr.encode(buf);
    storeBytes(CacheArea::kData, off, buf);
    if (!data.value().empty()) {
        storeBytes(CacheArea::kData, off + kDataHeaderBytes, data.value());
    }
    if (!subscribers_.empty()) {
        std::vector<uint8_t> slotBytes;
        slotBytes.reserve(kDataHeaderBytes + data.value().size());
        slotBytes.insert(slotBytes.end(), buf.begin(), buf.end());
        slotBytes.insert(slotBytes.end(), data.value().begin(),
                         data.value().end());
        pushBlockToSubscribers(fh, blockNo, slotBytes);
    }
}

void
FileServer::cacheDir(FileHandle dir)
{
    auto entries = store_.readdir(dir);
    if (!entries.ok()) {
        return;
    }
    std::vector<uint8_t> packed = packDirEntries(entries.value());
    if (packed.size() > kDirSlotBytes - kDirHeaderBytes) {
        packed.resize(kDirSlotBytes - kDirHeaderBytes);
    }
    uint32_t slot = dirSlot(dir.key(), geo_.dirSlots);
    uint64_t off = static_cast<uint64_t>(slot) * kDirSlotBytes;

    std::vector<uint8_t> old(kDirHeaderBytes);
    loadBytes(CacheArea::kDir, off, old);
    DirSlotHeader prev = DirSlotHeader::decode(old);
    noteInsert(prev.flag, prev.dirKey, dir.key());

    DirSlotHeader hdr;
    hdr.flag = kSlotValid;
    hdr.dirKey = dir.key();
    hdr.bytes = static_cast<uint32_t>(packed.size());
    hdr.entryCount = static_cast<uint32_t>(entries.value().size());
    std::vector<uint8_t> buf(kDirHeaderBytes);
    hdr.encode(buf);
    storeBytes(CacheArea::kDir, off, buf);
    if (!packed.empty()) {
        storeBytes(CacheArea::kDir, off + kDirHeaderBytes, packed);
    }
}

void
FileServer::cacheLink(FileHandle fh)
{
    auto target = store_.readlink(fh);
    if (!target.ok() || target.value().size() > kMaxLinkTargetLen) {
        return;
    }
    uint32_t slot = linkSlot(fh.key(), geo_.linkSlots);
    uint64_t off = static_cast<uint64_t>(slot) * kLinkRecBytes;

    std::vector<uint8_t> old(kLinkRecBytes);
    loadBytes(CacheArea::kLink, off, old);
    LinkRecord prev = LinkRecord::decode(old);
    noteInsert(prev.flag, prev.fhKey, fh.key());

    LinkRecord rec;
    rec.flag = kSlotValid;
    rec.fhKey = fh.key();
    rec.target = target.value();
    std::vector<uint8_t> buf(kLinkRecBytes);
    rec.encode(buf);
    storeBytes(CacheArea::kLink, off, buf);
}

void
FileServer::cacheStat()
{
    StatRecord rec;
    rec.flag = kSlotValid;
    rec.stat = store_.statfs();
    std::vector<uint8_t> buf(kStatRecBytes);
    rec.encode(buf);
    storeBytes(CacheArea::kStat, 0, buf);
}

uint32_t
FileServer::warmCaches()
{
    uint64_t before = stats_.cacheEvictions.value();
    for (FileHandle fh : store_.allHandles()) {
        auto attr = store_.getattr(fh);
        if (!attr.ok()) {
            continue;
        }
        cacheAttr(fh);
        switch (attr.value().type) {
          case FileType::kRegular: {
            uint64_t blocks =
                (attr.value().size + kBlockBytes - 1) / kBlockBytes;
            for (uint64_t b = 0; b < std::max<uint64_t>(blocks, 1); ++b) {
                cacheBlock(fh, b);
            }
            break;
          }
          case FileType::kDirectory: {
            cacheDir(fh);
            auto entries = store_.readdir(fh);
            if (entries.ok()) {
                for (const DirEntry &e : entries.value()) {
                    cacheName(fh, e.name);
                }
            }
            break;
          }
          case FileType::kSymlink: {
            cacheLink(fh);
            break;
          }
        }
    }
    cacheStat();
    return static_cast<uint32_t>(stats_.cacheEvictions.value() - before);
}

uint64_t
FileServer::scavengeDirtyBlocks()
{
    uint64_t applied = 0;
    for (uint32_t slot = 0; slot < geo_.dataSlots; ++slot) {
        uint64_t off = static_cast<uint64_t>(slot) * kDataSlotBytes;
        std::vector<uint8_t> hdrBuf(kDataHeaderBytes);
        loadBytes(CacheArea::kData, off, hdrBuf);
        DataSlotHeader hdr = DataSlotHeader::decode(hdrBuf);
        if (hdr.flag != kSlotValid || hdr.dirty == 0) {
            continue;
        }
        std::vector<uint8_t> data(hdr.validBytes);
        loadBytes(CacheArea::kData, off + kDataHeaderBytes, data);
        FileHandle fh = FileHandle::fromKey(hdr.fhKey);
        util::Status ws =
            store_.write(fh, hdr.blockNo * kBlockBytes, data);
        if (ws.ok()) {
            ++applied;
            stats_.dirtyBlocksApplied.inc();
        }
        hdr.dirty = 0;
        hdr.encode(hdrBuf);
        storeBytes(CacheArea::kData, off, hdrBuf);
        // Batched, amortized CPU cost; no per-operation control transfer.
        engine_.node().cpu().post(
            engine_.costs().copyCost(hdr.validBytes),
            sim::CpuCategory::kOther);
    }
    return applied;
}

void
FileServer::subscribe(const rmem::ImportedSegment &clerkCache,
                      const PushCacheGeometry &geometry)
{
    REMORA_ASSERT(clerkCache.size >=
                  ClerkPushCache::segmentBytes(geometry));
    subscribers_.push_back(Subscriber{clerkCache, geometry});
}

void
FileServer::pushAttrToSubscribers(FileHandle fh,
                                  std::span<const uint8_t> record)
{
    for (const Subscriber &sub : subscribers_) {
        uint32_t bucket = attrBucket(fh.key(), sub.geo.attrBuckets);
        uint64_t off = static_cast<uint64_t>(bucket) * kAttrRecBytes;
        ++pushes_;
        // Fire-and-forget remote write: no notification, no reply.
        engine_
            .write(sub.seg, static_cast<uint32_t>(off),
                   std::vector<uint8_t>(record.begin(), record.end()))
            .detach();
    }
}

void
FileServer::pushBlockToSubscribers(FileHandle fh, uint64_t blockNo,
                                   std::span<const uint8_t> slotBytes)
{
    for (const Subscriber &sub : subscribers_) {
        uint32_t slot = dataSlot(fh.key(), blockNo, sub.geo.dataSlots);
        uint64_t off =
            static_cast<uint64_t>(sub.geo.attrBuckets) * kAttrRecBytes +
            static_cast<uint64_t>(slot) * kDataSlotBytes;
        ++pushes_;
        engine_
            .write(sub.seg, static_cast<uint32_t>(off),
                   std::vector<uint8_t>(slotBytes.begin(), slotBytes.end()))
            .detach();
    }
}

void
FileServer::startScavenger(sim::Duration interval)
{
    engine_.node().simulator().schedule(interval, [this, interval] {
        scavengeDirtyBlocks();
        startScavenger(interval);
    });
}

} // namespace remora::dfs
