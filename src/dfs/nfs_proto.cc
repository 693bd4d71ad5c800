#include "dfs/nfs_proto.h"

#include <algorithm>

#include "rpc/marshal.h"

namespace remora::dfs {

const char *
nfsProcName(NfsProc proc)
{
    switch (proc) {
      case NfsProc::kNull: return "null";
      case NfsProc::kGetAttr: return "getattr";
      case NfsProc::kLookup: return "lookup";
      case NfsProc::kReadLink: return "readlink";
      case NfsProc::kRead: return "read";
      case NfsProc::kWrite: return "write";
      case NfsProc::kReadDir: return "readdir";
      case NfsProc::kStatFs: return "statfs";
    }
    return "unknown";
}

std::vector<uint8_t>
packDirEntries(const std::vector<DirEntry> &entries)
{
    util::ByteWriter w;
    util::Put io(w);
    for (const DirEntry &e : entries) {
        packedLayout(io, e);
    }
    return w.take();
}

std::vector<DirEntry>
unpackDirEntries(std::span<const uint8_t> bytes, size_t maxBytes)
{
    util::ByteReader r(bytes.first(std::min(bytes.size(), maxBytes)));
    util::Get io(r);
    std::vector<DirEntry> out;
    while (r.remaining() > 0) {
        DirEntry e;
        packedLayout(io, e);
        if (!io.ok()) {
            break;
        }
        out.push_back(std::move(e));
    }
    return out;
}

namespace {

rpc::Marshal
callHeader(NfsProc proc)
{
    rpc::Marshal m;
    m.putU32(static_cast<uint32_t>(proc));
    return m;
}

} // namespace

std::vector<uint8_t>
encodeNullCall()
{
    return callHeader(NfsProc::kNull).take();
}

std::vector<uint8_t>
encodeGetAttrCall(FileHandle fh)
{
    rpc::Marshal m = callHeader(NfsProc::kGetAttr);
    util::put(m, fh);
    return m.take();
}

std::vector<uint8_t>
encodeLookupCall(FileHandle dir, const std::string &name)
{
    rpc::Marshal m = callHeader(NfsProc::kLookup);
    util::put(m, dir);
    m.putString(name);
    return m.take();
}

std::vector<uint8_t>
encodeReadLinkCall(FileHandle fh)
{
    rpc::Marshal m = callHeader(NfsProc::kReadLink);
    util::put(m, fh);
    return m.take();
}

std::vector<uint8_t>
encodeReadCall(FileHandle fh, uint64_t offset, uint32_t count)
{
    rpc::Marshal m = callHeader(NfsProc::kRead);
    util::put(m, fh);
    m.putU64(offset);
    m.putU32(count);
    return m.take();
}

std::vector<uint8_t>
encodeWriteCall(FileHandle fh, uint64_t offset,
                std::span<const uint8_t> data)
{
    rpc::Marshal m = callHeader(NfsProc::kWrite);
    util::put(m, fh);
    m.putU64(offset);
    m.putOpaque(data);
    return m.take();
}

std::vector<uint8_t>
encodeReadDirCall(FileHandle fh, uint32_t maxBytes)
{
    rpc::Marshal m = callHeader(NfsProc::kReadDir);
    util::put(m, fh);
    m.putU32(maxBytes);
    return m.take();
}

std::vector<uint8_t>
encodeStatFsCall(FileHandle fh)
{
    rpc::Marshal m = callHeader(NfsProc::kStatFs);
    util::put(m, fh);
    return m.take();
}

} // namespace remora::dfs
