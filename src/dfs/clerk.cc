#include "dfs/clerk.h"

#include <algorithm>

namespace remora::dfs {

namespace {

/** Node scope for traces: "client.cpu" belongs to node "client". */
std::string_view
nodeOfCpu(const std::string &cpuName)
{
    size_t dot = cpuName.find('.');
    return std::string_view(cpuName).substr(
        0, dot == std::string::npos ? cpuName.size() : dot);
}

} // namespace

ServerClerk::ServerClerk(sim::CpuResource &cpu, FileServiceBackend &backend)
    : cpu_(cpu), backend_(backend), lrpc_(cpu)
{}

ServerClerk::ClerkOp
ServerClerk::beginOp(const char *op)
{
    if (!obs::TraceRecorder::on()) {
        return {};
    }
    auto &rec = obs::TraceRecorder::instance();
    ClerkOp out;
    // Runs eagerly at call time, so an enclosing OpScope (a workload
    // driving several file ops under one umbrella op) becomes parent.
    out.op = rec.newAsyncId();
    rec.asyncBegin(out.op, nodeOfCpu(cpu_.name()), "dfs", op);
    out.span = rec.beginSpanFor(out.op, nodeOfCpu(cpu_.name()), "dfs", op);
    return out;
}

void
ServerClerk::endOp(const ClerkOp &op, const char *name)
{
    auto &rec = obs::TraceRecorder::instance();
    rec.endSpan(op.span);
    if (op.op != 0) {
        rec.asyncEnd(op.op, nodeOfCpu(cpu_.name()), "dfs", name);
    }
}

void
ServerClerk::registerStats(obs::MetricRegistry &reg,
                           const std::string &prefix) const
{
    reg.add(prefix + ".requests", stats_.requests);
    reg.add(prefix + ".local_hits", stats_.localHits);
    reg.add(prefix + ".backend_calls", stats_.backendCalls);
}

sim::Task<util::Status>
ServerClerk::null()
{
    stats_.requests.inc();
    ClerkOp op = beginOp("clerk_null");
    co_await lrpc_.enterCallee();
    stats_.backendCalls.inc();
    util::Status s = co_await [&] {
        obs::OpScope traceScope(op.op);
        return backend_.null();
    }();
    co_await lrpc_.returnToCaller();
    endOp(op, "clerk_null");
    co_return s;
}

sim::Task<util::Result<FileAttr>>
ServerClerk::getattr(FileHandle fh)
{
    stats_.requests.inc();
    ClerkOp op = beginOp("clerk_getattr");
    co_await lrpc_.enterCallee();
    if (auto it = attrCache_.find(fh.key()); it != attrCache_.end()) {
        stats_.localHits.inc();
        FileAttr attr = it->second;
        co_await lrpc_.returnToCaller();
        endOp(op, "clerk_getattr");
        co_return attr;
    }
    stats_.backendCalls.inc();
    auto result = co_await [&] {
        obs::OpScope traceScope(op.op);
        return backend_.getattr(fh);
    }();
    if (result.ok()) {
        attrCache_[fh.key()] = result.value();
    }
    co_await lrpc_.returnToCaller();
    endOp(op, "clerk_getattr");
    co_return result;
}

sim::Task<util::Result<LookupReply>>
ServerClerk::lookup(FileHandle dir, std::string name)
{
    stats_.requests.inc();
    ClerkOp op = beginOp("clerk_lookup");
    co_await lrpc_.enterCallee();
    auto key = std::make_pair(dir.key(), name);
    if (auto it = nameCache_.find(key); it != nameCache_.end()) {
        stats_.localHits.inc();
        LookupReply reply = it->second;
        co_await lrpc_.returnToCaller();
        endOp(op, "clerk_lookup");
        co_return reply;
    }
    stats_.backendCalls.inc();
    auto result = co_await [&] {
        obs::OpScope traceScope(op.op);
        return backend_.lookup(dir, name);
    }();
    if (result.ok()) {
        nameCache_[key] = result.value();
        attrCache_[result.value().fh.key()] = result.value().attr;
    }
    co_await lrpc_.returnToCaller();
    endOp(op, "clerk_lookup");
    co_return result;
}

sim::Task<util::Result<std::vector<uint8_t>>>
ServerClerk::read(FileHandle fh, uint64_t offset, uint32_t count)
{
    stats_.requests.inc();
    ClerkOp op = beginOp("clerk_read");
    co_await lrpc_.enterCallee();

    std::vector<uint8_t> out;
    out.reserve(count);
    uint64_t pos = offset;
    uint64_t end = offset + count;
    bool allLocal = true;

    // Try to assemble the whole range from locally cached blocks.
    while (allLocal && pos < end) {
        uint64_t blockNo = pos / kBlockBytes;
        uint32_t blockOff = static_cast<uint32_t>(pos % kBlockBytes);
        auto it = blockCache_.find({fh.key(), blockNo});
        if (it == blockCache_.end() || it->second.size() < blockOff) {
            allLocal = false;
            break;
        }
        uint32_t chunk = static_cast<uint32_t>(
            std::min<uint64_t>(end - pos, kBlockBytes - blockOff));
        uint32_t avail = static_cast<uint32_t>(it->second.size()) - blockOff;
        uint32_t take = std::min(chunk, avail);
        out.insert(out.end(), it->second.begin() + blockOff,
                   it->second.begin() + blockOff + take);
        pos += take;
        if (take < chunk) {
            break; // end of file inside a cached short block
        }
    }
    if (allLocal) {
        stats_.localHits.inc();
        co_await lrpc_.returnToCaller();
        endOp(op, "clerk_read");
        co_return out;
    }

    stats_.backendCalls.inc();
    auto result = co_await [&] {
        obs::OpScope traceScope(op.op);
        return backend_.read(fh, offset, count);
    }();
    if (result.ok() && offset % kBlockBytes == 0) {
        // Cache whole blocks from block-aligned reads.
        const auto &data = result.value();
        for (uint64_t p = 0; p < data.size(); p += kBlockBytes) {
            size_t len = std::min<size_t>(kBlockBytes, data.size() - p);
            blockCache_[{fh.key(), offset / kBlockBytes + p / kBlockBytes}] =
                std::vector<uint8_t>(data.begin() + static_cast<long>(p),
                                     data.begin() +
                                         static_cast<long>(p + len));
        }
    }
    co_await lrpc_.returnToCaller();
    endOp(op, "clerk_read");
    co_return result;
}

sim::Task<util::Status>
ServerClerk::write(FileHandle fh, uint64_t offset, std::vector<uint8_t> data)
{
    stats_.requests.inc();
    ClerkOp op = beginOp("clerk_write");
    co_await lrpc_.enterCallee();
    if (offset % kBlockBytes == 0) {
        for (uint64_t p = 0; p < data.size(); p += kBlockBytes) {
            size_t len = std::min<size_t>(kBlockBytes, data.size() - p);
            blockCache_[{fh.key(), offset / kBlockBytes + p / kBlockBytes}] =
                std::vector<uint8_t>(data.begin() + static_cast<long>(p),
                                     data.begin() +
                                         static_cast<long>(p + len));
        }
    }
    attrCache_.erase(fh.key()); // size/mtime changed
    stats_.backendCalls.inc();
    util::Status s = co_await [&] {
        obs::OpScope traceScope(op.op);
        return backend_.write(fh, offset, std::move(data));
    }();
    co_await lrpc_.returnToCaller();
    endOp(op, "clerk_write");
    co_return s;
}

sim::Task<util::Result<std::string>>
ServerClerk::readlink(FileHandle fh)
{
    stats_.requests.inc();
    ClerkOp op = beginOp("clerk_readlink");
    co_await lrpc_.enterCallee();
    if (auto it = linkCache_.find(fh.key()); it != linkCache_.end()) {
        stats_.localHits.inc();
        std::string target = it->second;
        co_await lrpc_.returnToCaller();
        endOp(op, "clerk_readlink");
        co_return target;
    }
    stats_.backendCalls.inc();
    auto result = co_await [&] {
        obs::OpScope traceScope(op.op);
        return backend_.readlink(fh);
    }();
    if (result.ok()) {
        linkCache_[fh.key()] = result.value();
    }
    co_await lrpc_.returnToCaller();
    endOp(op, "clerk_readlink");
    co_return result;
}

sim::Task<util::Result<std::vector<DirEntry>>>
ServerClerk::readdir(FileHandle fh, uint32_t maxBytes)
{
    stats_.requests.inc();
    ClerkOp op = beginOp("clerk_readdir");
    co_await lrpc_.enterCallee();
    if (auto it = dirCache_.find(fh.key()); it != dirCache_.end()) {
        stats_.localHits.inc();
        std::vector<DirEntry> entries = it->second;
        co_await lrpc_.returnToCaller();
        endOp(op, "clerk_readdir");
        co_return entries;
    }
    stats_.backendCalls.inc();
    auto result = co_await [&] {
        obs::OpScope traceScope(op.op);
        return backend_.readdir(fh, maxBytes);
    }();
    if (result.ok()) {
        dirCache_[fh.key()] = result.value();
    }
    co_await lrpc_.returnToCaller();
    endOp(op, "clerk_readdir");
    co_return result;
}

sim::Task<util::Result<FsStat>>
ServerClerk::statfs()
{
    stats_.requests.inc();
    ClerkOp op = beginOp("clerk_statfs");
    co_await lrpc_.enterCallee();
    if (statValid_) {
        stats_.localHits.inc();
        FsStat s = statCache_;
        co_await lrpc_.returnToCaller();
        endOp(op, "clerk_statfs");
        co_return s;
    }
    stats_.backendCalls.inc();
    auto result = co_await [&] {
        obs::OpScope traceScope(op.op);
        return backend_.statfs();
    }();
    if (result.ok()) {
        statCache_ = result.value();
        statValid_ = true;
    }
    co_await lrpc_.returnToCaller();
    endOp(op, "clerk_statfs");
    co_return result;
}

void
ServerClerk::invalidateAll()
{
    attrCache_.clear();
    nameCache_.clear();
    blockCache_.clear();
    linkCache_.clear();
    dirCache_.clear();
    statValid_ = false;
}

void
ServerClerk::invalidate(FileHandle fh)
{
    attrCache_.erase(fh.key());
    linkCache_.erase(fh.key());
    dirCache_.erase(fh.key());
    for (auto it = blockCache_.begin(); it != blockCache_.end();) {
        if (it->first.first == fh.key()) {
            it = blockCache_.erase(it);
        } else {
            ++it;
        }
    }
    for (auto it = nameCache_.begin(); it != nameCache_.end();) {
        if (it->first.first == fh.key()) {
            it = nameCache_.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace remora::dfs
