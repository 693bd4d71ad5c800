#include "dfs/server.h"

#include <algorithm>

#include "obs/trace.h"
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
    stats_.callsServed.inc();
    util::ByteReader r(body);
    NfsProc proc = util::get<CallHeader>(r).proc;
    engine_.node().simulator().noteDigest(
        "dfs.serve",
        static_cast<uint64_t>(src) << 32 | static_cast<uint32_t>(proc));
    // Explicit span: the procedure body suspends on the CPU resource.
    obs::SpanId span = obs::beginSpan(0, engine_.node().name(), "dfs",
                                      nfsProcName(proc), obs::kv("from", src));
    // The procedure's warm-cache time for @p bytes moved.
    auto exec = [this, proc](uint64_t bytes) {
        return engine_.node().cpu().use(times_.timeFor(proc, bytes),
                                        sim::CpuCategory::kProcExec);
    };
    auto attrOf = [this](FileHandle fh) {
        auto attr = store_.getattr(fh);
        return attr.ok() ? attr.value() : FileAttr{};
    };

    // Each case decodes its arguments and leaves the store alone when
    // they do not decode: the call is answered kMalformed below.
    std::vector<uint8_t> reply;
    switch (proc) {
      case NfsProc::kNull:
        if (util::get<NullArgs>(r); r.ok()) {
            co_await exec(0);
            reply = encodeReply(NullRes{});
        }
        break;
      case NfsProc::kGetAttr:
        if (auto args = util::get<GetAttrArgs>(r); r.ok()) {
            co_await exec(0);
            auto attr = store_.getattr(args.fh);
            reply = attr.ok() ? encodeReply(attr.value())
                              : encodeFailure(attr.status().code());
        }
        break;
      case NfsProc::kLookup:
        if (auto args = util::get<LookupArgs>(r); r.ok()) {
            co_await exec(0);
            auto child = store_.lookup(args.dir, args.name);
            reply = child.ok() ? encodeReply(LookupReply{
                                     child.value(), attrOf(child.value())})
                               : encodeFailure(child.status().code());
        }
        break;
      case NfsProc::kReadLink:
        if (auto args = util::get<ReadLinkArgs>(r); r.ok()) {
            co_await exec(0);
            auto target = store_.readlink(args.fh);
            reply = target.ok() ? encodeReply(ReadLinkRes{target.take()})
                                : encodeFailure(target.status().code());
        }
        break;
      case NfsProc::kRead:
        if (auto args = util::get<ReadArgs>(r); r.ok()) {
            co_await exec(args.count);
            auto data = store_.read(args.fh, args.offset, args.count);
            reply = data.ok()
                        ? encodeReply(ReadRes{attrOf(args.fh), data.take()})
                        : encodeFailure(data.status().code());
        }
        break;
      case NfsProc::kWrite:
        if (auto args = util::get<WriteArgs>(r); r.ok()) {
            co_await exec(args.data.size());
            util::Status ws = store_.write(args.fh, args.offset, args.data);
            if (!ws.ok()) {
                reply = encodeFailure(ws.code());
                break;
            }
            // Keep the exported caches coherent with the new contents.
            cacheAttr(args.fh);
            uint64_t end = args.offset + std::max<size_t>(args.data.size(), 1);
            for (uint64_t b = args.offset / kBlockBytes;
                 b <= (end - 1) / kBlockBytes; ++b) {
                cacheBlock(args.fh, b);
            }
            reply = encodeReply(attrOf(args.fh));
        }
        break;
      case NfsProc::kReadDir:
        if (auto args = util::get<ReadDirArgs>(r); r.ok()) {
            auto entries = store_.readdir(args.fh);
            if (!entries.ok()) {
                co_await exec(0);
                reply = encodeFailure(entries.status().code());
                break;
            }
            // Trim to the requested byte budget, whole entries only.
            std::vector<uint8_t> packed = packDirEntries(entries.value());
            co_await exec(std::min<uint64_t>(packed.size(), args.maxBytes));
            reply = encodeReply(unpackDirEntries(packed, args.maxBytes));
        }
        break;
      case NfsProc::kStatFs:
        if (util::get<StatFsArgs>(r); r.ok()) {
            co_await exec(0);
            reply = encodeReply(store_.statfs());
        }
        break;
      default:
        reply = encodeFailure(util::ErrorCode::kInvalidArgument);
        break;
    }
    if (!r.ok()) {
        reply = encodeFailure(util::ErrorCode::kMalformed);
    }
    obs::endSpan(span);
    co_return reply;
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

template <typename R>
std::vector<uint8_t>
FileServer::install(CacheArea area, R rec, std::span<const uint8_t> tail)
{
    uint64_t off = rec.offset(geo_);
    std::vector<uint8_t> buf(R::kBytes);
    // A record without a tag (statistics) owns its one slot: refreshing
    // it is neither an insert nor an eviction.
    if constexpr (requires { rec.tag(); }) {
        loadBytes(area, off, buf);
        R old = R::decode(buf);
        stats_.cacheInserts.inc();
        if (old.valid() && old.tag() != rec.tag()) {
            stats_.cacheEvictions.inc();
        }
    }
    rec.flag = kSlotValid;
    rec.encode(buf);
    storeBytes(area, off, buf);
    if (!tail.empty()) {
        storeBytes(area, off + R::kBytes, tail);
    }
    return buf;
}

template <typename R>
void
FileServer::push(const R &rec, std::span<const uint8_t> bytes)
{
    for (const Subscriber &sub : subscribers_) {
        ++pushes_;
        // Fire-and-forget remote write: no notification, no reply.
        engine_
            .write(sub.seg,
                   static_cast<uint32_t>(
                       ClerkPushCache::offsetOf(sub.geo, rec)),
                   std::vector<uint8_t>(bytes.begin(), bytes.end()))
            .detach();
    }
}

void
FileServer::cacheAttr(FileHandle fh)
{
    auto attr = store_.getattr(fh);
    if (!attr.ok()) {
        return;
    }
    AttrRecord rec(fh.key());
    rec.attr = attr.value();
    push(rec, install(CacheArea::kAttr, rec));
}

void
FileServer::cacheName(FileHandle dir, const std::string &name)
{
    auto child = store_.lookup(dir, name);
    if (!child.ok() || name.size() > kMaxCachedNameLen) {
        return;
    }
    auto attr = store_.getattr(child.value());
    NameLookupRecord rec(dir.key(), name);
    rec.childKey = child.value().key();
    rec.childAttr = attr.ok() ? attr.value() : FileAttr{};
    install(CacheArea::kName, std::move(rec));
}

void
FileServer::cacheBlock(FileHandle fh, uint64_t blockNo)
{
    auto data = store_.read(fh, blockNo * kBlockBytes, kBlockBytes);
    if (!data.ok()) {
        return;
    }
    DataSlotHeader hdr(fh.key(), blockNo);
    hdr.validBytes = static_cast<uint32_t>(data.value().size());
    std::vector<uint8_t> slotBytes =
        install(CacheArea::kData, hdr, data.value());
    if (!subscribers_.empty()) {
        slotBytes.insert(slotBytes.end(), data.value().begin(),
                         data.value().end());
        push(hdr, slotBytes);
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
    DirSlotHeader hdr(dir.key());
    hdr.bytes = static_cast<uint32_t>(packed.size());
    hdr.entryCount = static_cast<uint32_t>(entries.value().size());
    install(CacheArea::kDir, hdr, packed);
}

void
FileServer::cacheLink(FileHandle fh)
{
    auto target = store_.readlink(fh);
    if (!target.ok() || target.value().size() > kMaxLinkTargetLen) {
        return;
    }
    LinkRecord rec(fh.key());
    rec.target = target.take();
    install(CacheArea::kLink, std::move(rec));
}

void
FileServer::cacheStat()
{
    StatRecord rec;
    rec.stat = store_.statfs();
    install(CacheArea::kStat, rec);
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
        uint64_t off = DataSlotHeader::slotOffset(slot);
        std::vector<uint8_t> hdrBuf(kDataHeaderBytes);
        loadBytes(CacheArea::kData, off, hdrBuf);
        DataSlotHeader hdr = DataSlotHeader::decode(hdrBuf);
        if (!hdr.valid() || hdr.dirty == 0) {
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
FileServer::startScavenger(sim::Duration interval)
{
    engine_.node().simulator().schedule(interval, [this, interval] {
        scavengeDirtyBlocks();
        startScavenger(interval);
    });
}

} // namespace remora::dfs
