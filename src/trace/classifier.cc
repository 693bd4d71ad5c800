#include "trace/classifier.h"

#include <string>
#include <vector>

#include "dfs/nfs_proto.h"

namespace remora::trace {

namespace {

/** RPC communication identifiers (xids): one on the call, one on the
 *  reply. */
constexpr uint64_t kXidBytes = 2 * 4;

/**
 * One exchange as the file service sends it: the call carrying @p args
 * and the successful reply carrying @p res. @p data of its bytes are
 * data; the rest, with both xids, is control.
 */
template <typename A>
Traffic
exchange(const A &args, const typename A::Res &res, uint64_t data)
{
    uint64_t total = util::sizeOf(dfs::CallHeader{}) + util::sizeOf(args) +
                     util::sizeOf(dfs::ReplyHeader{}) + util::sizeOf(res) +
                     kXidBytes;
    return Traffic{total > data ? total - data : 0, data};
}

} // namespace

Traffic
classifyOp(OpClass cls, const OpShape &shape)
{
    const uint64_t attr = util::sizeOf(dfs::FileAttr{});
    const std::string name(shape.nameLen, 'n');
    auto payload = [&shape] {
        return std::vector<uint8_t>(shape.payloadBytes);
    };

    switch (cls) {
      case OpClass::kGetAttr:
        return exchange(dfs::GetAttrArgs{}, {}, attr);
      case OpClass::kLookup:
        return exchange(dfs::LookupArgs{{}, name}, {}, shape.nameLen + attr);
      case OpClass::kRead:
        return exchange(dfs::ReadArgs{}, {{}, payload()},
                        shape.payloadBytes + attr);
      case OpClass::kNullPing:
        return exchange(dfs::NullArgs{}, {}, 0);
      case OpClass::kReadLink:
        return exchange(dfs::ReadLinkArgs{},
                        {std::string(shape.targetLen, 't')}, shape.targetLen);
      case OpClass::kReadDir: {
        // The payload is the packed-entry budget: the reply marshals as
        // many whole entries as fit in it packed, as the server trims.
        dfs::DirEntry entry{0, name};
        uint64_t packed = dfs::packDirEntries({entry}).size();
        std::vector<dfs::DirEntry> entries(shape.payloadBytes / packed,
                                           entry);
        return exchange(dfs::ReadDirArgs{}, entries, shape.payloadBytes);
      }
      case OpClass::kStatFs:
        return exchange(dfs::StatFsArgs{}, {},
                        util::sizeOf(dfs::FsStat{}));
      case OpClass::kWrite:
        return exchange(dfs::WriteArgs{{}, 0, payload()}, {},
                        shape.payloadBytes + attr);
      case OpClass::kOther: {
        // Miscellaneous mutating ops (setattr, create, remove, ...) have
        // no procedure here: a handle and a 32-byte argument block in,
        // attributes back.
        Traffic t = exchange(dfs::GetAttrArgs{}, {}, attr + 16);
        t.controlBytes += 32;
        return t;
      }
      case OpClass::kNumClasses:
        break;
    }
    return Traffic{kXidBytes, 0};
}

} // namespace remora::trace
