/**
 * @file
 * Per-node physical memory: a frame allocator over a byte store.
 *
 * Frames are allocated lazily (a node only pays for pages actually
 * mapped), matching a DECstation-era machine with tens of megabytes.
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
     * Allocate a zeroed frame.
     *
     * @return The frame number; fatal on exhaustion (configuration
     *         error: the experiment needs more memory than the node has).
     */
    Frame allocFrame();

    /** Release a frame back to the free list. */
    void freeFrame(Frame f);

    /** Mutable view of a frame's bytes. */
    std::span<uint8_t> frameData(Frame f);

    /** Frames currently allocated. */
    size_t framesInUse() const { return framesInUse_; }

  private:
    size_t maxFrames_;
    size_t framesInUse_ = 0;
    std::vector<std::unique_ptr<uint8_t[]>> frames_;
    std::vector<Frame> freeList_;
};

} // namespace remora::mem
