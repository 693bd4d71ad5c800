#include "trace/classifier.h"

#include <string>
#include <vector>

#include "dfs/nfs_proto.h"

namespace remora::trace {

namespace {

/** RPC communication identifier (xid), present on call and reply. */
constexpr uint64_t kXidBytes = 4;

/** Wire size of a string marshaled by XDR. */
uint64_t
xdrString(uint64_t len)
{
    return 4 + ((len + 3) / 4) * 4;
}

/** Wire size of opaque bytes marshaled by XDR. */
uint64_t
xdrOpaque(uint64_t len)
{
    return 4 + ((len + 3) / 4) * 4;
}

} // namespace

Traffic
classifyOp(OpClass cls, const OpShape &shape)
{
    const uint64_t attr = util::sizeOf(dfs::FileAttr{});
    const uint64_t statBlock = util::sizeOf(dfs::FsStat{});
    const uint64_t fh = dfs::kWireFileHandleBytes;
    const uint64_t proc = 4;   // procedure number word
    const uint64_t status = 4; // reply status word
    const uint64_t xids = 2 * kXidBytes;

    uint64_t req = 0;
    uint64_t resp = 0;
    uint64_t data = 0;

    switch (cls) {
      case OpClass::kGetAttr:
        req = proc + fh;
        resp = status + attr;
        data = attr;
        break;
      case OpClass::kLookup:
        req = proc + fh + xdrString(shape.nameLen);
        resp = status + fh + attr;
        data = shape.nameLen + attr;
        break;
      case OpClass::kRead:
        req = proc + fh + 8 /*offset*/ + 4 /*count*/;
        resp = status + attr + xdrOpaque(shape.payloadBytes);
        data = shape.payloadBytes + attr;
        break;
      case OpClass::kNullPing:
        req = proc;
        resp = status;
        data = 0;
        break;
      case OpClass::kReadLink:
        req = proc + fh;
        resp = status + xdrString(shape.targetLen);
        data = shape.targetLen;
        break;
      case OpClass::kReadDir: {
        req = proc + fh + 4 /*maxBytes*/;
        // Packed entries average 9 bytes + name per entry; marshaled
        // entries carry a fileid, a length word, and name padding.
        uint64_t perPacked = 9 + shape.nameLen;
        uint64_t entries =
            perPacked ? shape.payloadBytes / perPacked : 0;
        uint64_t perWire = 8 + xdrString(shape.nameLen);
        resp = status + 4 /*count*/ + entries * perWire;
        data = shape.payloadBytes;
        break;
      }
      case OpClass::kStatFs:
        req = proc + fh;
        resp = status + statBlock;
        data = statBlock;
        break;
      case OpClass::kWrite:
        req = proc + fh + 8 /*offset*/ + xdrOpaque(shape.payloadBytes);
        resp = status + attr;
        data = shape.payloadBytes + attr;
        break;
      case OpClass::kOther:
        // Miscellaneous mutating ops (setattr, create, remove, ...):
        // handle + a small argument block in, attributes back.
        req = proc + fh + 32;
        resp = status + attr;
        data = attr + 16;
        break;
      case OpClass::kNumClasses:
        break;
    }

    uint64_t total = req + resp + xids;
    Traffic t;
    t.dataBytes = data;
    t.controlBytes = total > data ? total - data : 0;
    return t;
}

} // namespace remora::trace
