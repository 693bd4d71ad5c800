/**
 * @file
 * The NFS-shaped operation vocabulary and its XDR marshaling.
 *
 * The file service "presents an interface similar to NFS, i.e., it
 * implements operations like those shown earlier in Table 1a" (§5.2).
 * These procedure numbers, call encoders and the layouts of the records
 * a reply carries (file handle, attributes, statistics, directory
 * entries) are shared by every access path (Hybrid-1 backend,
 * conventional-RPC backend, server dispatch) and by the traffic
 * classifier, which measures the exact bytes they produce. Each record
 * is one two-way layout: util::put() encodes it, util::get() decodes it.
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
// Call bodies: [proc u32][args...], shared by Hybrid-1 and the
// conventional RPC transport so both carry identical bytes.
// ----------------------------------------------------------------------

/** NULL ping. */
std::vector<uint8_t> encodeNullCall();

/** GETATTR(fh). */
std::vector<uint8_t> encodeGetAttrCall(FileHandle fh);

/** LOOKUP(dir, name). */
std::vector<uint8_t> encodeLookupCall(FileHandle dir,
                                      const std::string &name);

/** READLINK(fh). */
std::vector<uint8_t> encodeReadLinkCall(FileHandle fh);

/** READ(fh, offset, count). */
std::vector<uint8_t> encodeReadCall(FileHandle fh, uint64_t offset,
                                    uint32_t count);

/** WRITE(fh, offset, data). */
std::vector<uint8_t> encodeWriteCall(FileHandle fh, uint64_t offset,
                                     std::span<const uint8_t> data);

/** READDIR(fh, maxBytes). */
std::vector<uint8_t> encodeReadDirCall(FileHandle fh, uint32_t maxBytes);

/** STATFS(fh). */
std::vector<uint8_t> encodeStatFsCall(FileHandle fh);

} // namespace remora::dfs
