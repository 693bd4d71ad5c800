#include "dfs/nfs_proto.h"

#include <algorithm>

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

std::vector<uint8_t>
encodeFailure(util::ErrorCode status)
{
    util::ByteWriter w;
    util::put(w, ReplyHeader{status});
    return w.take();
}

} // namespace remora::dfs
