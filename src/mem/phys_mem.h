/**
 * @file
 * Per-node physical memory: a frame allocator over a byte store.
 *
 * Frames are allocated lazily (a node only pays for pages actually
 * mapped), matching a DECstation-era machine with tens of megabytes.
 * A frame also takes host memory only once it is first written: until
 * then it reads as one shared page of zeros, and freeing it gives its
 * storage back, so a reused frame reads zeros without being cleared.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace remora::mem {

/** Bytes per page/frame (DECstation R3000: 4 KB). */
inline constexpr size_t kPageBytes = 4096;

/** Physical frame number. */
using Frame = uint32_t;

/** Frame allocator and backing store for one node. */
class PhysMem
{
  public:
    /**
     * @param maxFrames Upper bound on allocatable frames (default 64 MB
     *        worth, generous for a 1994 workstation).
     */
    explicit PhysMem(size_t maxFrames = 16384);

    /**
     * Allocate a frame that reads as zeros. It holds no storage until
     * frameData() first asks to write it.
     *
     * @return The frame number; fatal on exhaustion (configuration
     *         error: the experiment needs more memory than the node has).
     */
    Frame allocFrame();

    /** Release a frame, and its storage, back to the free list. */
    void freeFrame(Frame f);

    /**
     * Read-only view of a frame's bytes: the shared zero page while
     * the frame has never been written.
     */
    std::span<const uint8_t> readData(Frame f) const;

    /** Mutable view of a frame's bytes, materialising its storage. */
    std::span<uint8_t> frameData(Frame f);

    /** Frames currently allocated. */
    size_t framesInUse() const { return framesInUse_; }

    /** Allocated frames that hold storage of their own (written to). */
    size_t framesMaterialised() const { return framesMaterialised_; }

  private:
    size_t maxFrames_;
    size_t framesInUse_ = 0;
    size_t framesMaterialised_ = 0;
    /** Each frame's storage; null while it reads as zeros. */
    std::vector<std::unique_ptr<uint8_t[]>> frames_;
    std::vector<Frame> freeList_;
};

} // namespace remora::mem
