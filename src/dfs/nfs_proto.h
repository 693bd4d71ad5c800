/**
 * @file
 * The NFS-shaped operation vocabulary and its XDR marshaling.
 *
 * The file service "presents an interface similar to NFS, i.e., it
 * implements operations like those shown earlier in Table 1a" (§5.2).
 * Every byte of its calls and replies is stated here once, as two-way
 * layouts: the records a reply carries (file handle, attributes,
 * statistics, directory entries) and each procedure's arguments and
 * results. A call body is the procedure word, then the arguments; a
 * reply body is the status word, then, on success, the results.
 * util::put() encodes them, util::get() decodes them and util::sizeOf()
 * counts them, for every access path (Hybrid-1 backend,
 * conventional-RPC backend, server dispatch) and for the traffic
 * classifier, which sizes Table 1b off the same layouts.
 *
 * Wire fidelity note: a file handle is marshaled as 32 opaque bytes,
 * matching NFS v2, even though only 8 are meaningful here — Table 1b's
 * control-byte accounting depends on the real handle size.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfs/file_store.h"
#include "util/bytes.h"
#include "util/status.h"

namespace remora::dfs {

/** Procedure numbers of the file service. */
enum class NfsProc : uint32_t
{
    kNull = 0,
    kGetAttr = 1,
    kLookup = 4,
    kReadLink = 5,
    kRead = 6,
    kWrite = 8,
    kReadDir = 16,
    kStatFs = 17,
};

/** Human-readable name of a procedure. */
const char *nfsProcName(NfsProc proc);

/** Marshaled size of a file handle on the wire (NFS v2: 32 bytes). */
inline constexpr size_t kWireFileHandleBytes = 32;

/** A file handle: inode and generation in 32 opaque bytes. */
template <typename Io, util::MaybeConst<FileHandle> T>
void
layout(Io &io, T &fh)
{
    io.block(kWireFileHandleBytes, [&] {
        io.u32(fh.inode);
        io.u32(fh.generation);
    });
}

/** File attributes: 17 XDR words, like NFS v2 fattr. */
template <typename Io, util::MaybeConst<FileAttr> T>
void
layout(Io &io, T &a)
{
    io.u32(a.type);
    io.u32(a.mode);
    io.u32(a.nlink);
    io.u32(a.uid);
    io.u32(a.gid);
    io.u64(a.size);
    io.u64(a.bytesUsed);
    io.u64(a.fileid);
    io.u32(a.atime);
    io.u32(a.mtime);
    io.u32(a.ctime);
}

/** Filesystem statistics. */
template <typename Io, util::MaybeConst<FsStat> T>
void
layout(Io &io, T &s)
{
    io.u64(s.totalBytes);
    io.u64(s.freeBytes);
    io.u64(s.totalFiles);
    io.u32(s.blockSize);
}

/** READDIR's entries: a u32 count, then (fileid, XDR name) pairs. */
template <typename Io, util::MaybeConst<std::vector<DirEntry>> T>
void
layout(Io &io, T &entries)
{
    auto n = static_cast<uint32_t>(entries.size());
    io.u32(n);
    io.each(entries, n, [&io](auto &e) {
        io.u64(e.fileid);
        io.string(e.name);
    });
}

/**
 * A directory entry as the server's directory cache area stores it:
 * [fileid u64][len u8][name bytes].
 */
template <typename Io, util::MaybeConst<DirEntry> T>
void
packedLayout(Io &io, T &e)
{
    io.u64(e.fileid);
    io.bytes8(e.name);
}

/** Flatten directory entries into the directory cache area's form. */
std::vector<uint8_t> packDirEntries(const std::vector<DirEntry> &entries);

/**
 * The whole entries packDirEntries wrote into the first @p maxBytes of
 * @p bytes.
 */
std::vector<DirEntry> unpackDirEntries(std::span<const uint8_t> bytes,
                                       size_t maxBytes);

// ----------------------------------------------------------------------
// Calls and replies
// ----------------------------------------------------------------------

/** The word that leads a call body: its procedure. */
struct CallHeader
{
    NfsProc proc = NfsProc::kNull;
};

template <typename Io, util::MaybeConst<CallHeader> T>
void
layout(Io &io, T &hdr)
{
    io.u32(hdr.proc);
}

/** The word that leads a reply body: kOk, or why the call failed. */
struct ReplyHeader
{
    util::ErrorCode status = util::ErrorCode::kOk;
};

template <typename Io, util::MaybeConst<ReplyHeader> T>
void
layout(Io &io, T &hdr)
{
    io.u32(hdr.status);
}

/** NULL's results: none. */
struct NullRes
{};

template <typename Io, util::MaybeConst<NullRes> T>
void
layout(Io &, T &)
{}

/** LOOKUP's results: the child's handle and attributes (diropres). */
struct LookupReply
{
    FileHandle fh;
    FileAttr attr;
};

template <typename Io, util::MaybeConst<LookupReply> T>
void
layout(Io &io, T &res)
{
    layout(io, res.fh);
    layout(io, res.attr);
}

/** READLINK's results: the target. */
struct ReadLinkRes
{
    std::string target;
};

template <typename Io, util::MaybeConst<ReadLinkRes> T>
void
layout(Io &io, T &res)
{
    io.string(res.target);
}

/** READ's results: the file's attributes, then the bytes read. */
struct ReadRes
{
    FileAttr attr;
    std::vector<uint8_t> data;
};

template <typename Io, util::MaybeConst<ReadRes> T>
void
layout(Io &io, T &res)
{
    layout(io, res.attr);
    io.opaque(res.data);
}

// Each procedure's arguments name the procedure (kProc) and the type of
// its results (Res); GETATTR and WRITE answer with the attributes,
// READDIR with the entries and STATFS with the statistics.

/** NULL(): the ping. */
struct NullArgs
{
    static constexpr NfsProc kProc = NfsProc::kNull;
    using Res = NullRes;
};

template <typename Io, util::MaybeConst<NullArgs> T>
void
layout(Io &, T &)
{}

/**
 * GETATTR(fh), READLINK(fh) and STATFS(fh): the arguments of a procedure
 * that takes a file handle alone.
 */
template <NfsProc P, typename R>
struct HandleArgs
{
    static constexpr NfsProc kProc = P;
    using Res = R;
    FileHandle fh;
};

using GetAttrArgs = HandleArgs<NfsProc::kGetAttr, FileAttr>;
using ReadLinkArgs = HandleArgs<NfsProc::kReadLink, ReadLinkRes>;
using StatFsArgs = HandleArgs<NfsProc::kStatFs, FsStat>;

template <typename Io, typename T>
    requires util::MaybeConst<T, HandleArgs<T::kProc, typename T::Res>>
void
layout(Io &io, T &args)
{
    layout(io, args.fh);
}

/** LOOKUP(dir, name). */
struct LookupArgs
{
    static constexpr NfsProc kProc = NfsProc::kLookup;
    using Res = LookupReply;
    FileHandle dir;
    std::string name;
};

template <typename Io, util::MaybeConst<LookupArgs> T>
void
layout(Io &io, T &args)
{
    layout(io, args.dir);
    io.string(args.name);
}

/** READ(fh, offset, count). */
struct ReadArgs
{
    static constexpr NfsProc kProc = NfsProc::kRead;
    using Res = ReadRes;
    FileHandle fh;
    uint64_t offset = 0;
    uint32_t count = 0;
};

template <typename Io, util::MaybeConst<ReadArgs> T>
void
layout(Io &io, T &args)
{
    layout(io, args.fh);
    io.u64(args.offset);
    io.u32(args.count);
}

/** WRITE(fh, offset, data). */
struct WriteArgs
{
    static constexpr NfsProc kProc = NfsProc::kWrite;
    using Res = FileAttr;
    FileHandle fh;
    uint64_t offset = 0;
    std::vector<uint8_t> data;
};

template <typename Io, util::MaybeConst<WriteArgs> T>
void
layout(Io &io, T &args)
{
    layout(io, args.fh);
    io.u64(args.offset);
    io.opaque(args.data);
}

/** READDIR(fh, maxBytes). */
struct ReadDirArgs
{
    static constexpr NfsProc kProc = NfsProc::kReadDir;
    using Res = std::vector<DirEntry>;
    FileHandle fh;
    uint32_t maxBytes = 0;
};

template <typename Io, util::MaybeConst<ReadDirArgs> T>
void
layout(Io &io, T &args)
{
    layout(io, args.fh);
    io.u32(args.maxBytes);
}

/** A call body: the procedure word of @p args, then @p args. */
template <typename A>
std::vector<uint8_t>
encodeCall(const A &args)
{
    util::ByteWriter w;
    util::put(w, CallHeader{A::kProc});
    util::put(w, args);
    return w.take();
}

/** A successful reply body: status kOk, then @p res. */
template <typename R>
std::vector<uint8_t>
encodeReply(const R &res)
{
    util::ByteWriter w;
    util::put(w, ReplyHeader{});
    util::put(w, res);
    return w.take();
}

/** A failed reply body: the status word @p status alone. */
std::vector<uint8_t> encodeFailure(util::ErrorCode status);

/**
 * The results a round trip's @p reply carries: the round trip's own
 * failure, the failure the reply's status word names, or kMalformed
 * when the reply body does not decode.
 */
template <typename R>
util::Result<R>
decodeReply(const util::Result<std::vector<uint8_t>> &reply)
{
    if (!reply.ok()) {
        return reply.status();
    }
    util::ByteReader r(reply.value());
    auto hdr = util::get<ReplyHeader>(r);
    if (r.ok() && hdr.status != util::ErrorCode::kOk) {
        return util::Status(hdr.status, "server-side failure");
    }
    R res = util::get<R>(r);
    if (!r.ok()) {
        return util::Status(util::ErrorCode::kMalformed, "short reply");
    }
    return res;
}

} // namespace remora::dfs
