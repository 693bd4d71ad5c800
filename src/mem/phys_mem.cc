#include "mem/phys_mem.h"

#include "util/panic.h"

namespace remora::mem {

namespace {

/** What every frame reads as until its first write. */
constexpr uint8_t kZeroPage[kPageBytes] = {};

} // namespace

PhysMem::PhysMem(size_t maxFrames) : maxFrames_(maxFrames)
{
    REMORA_ASSERT(maxFrames > 0);
}

Frame
PhysMem::allocFrame()
{
    if (!freeList_.empty()) {
        Frame f = freeList_.back();
        freeList_.pop_back();
        ++framesInUse_;
        return f;
    }
    if (frames_.size() >= maxFrames_) {
        REMORA_FATAL("physical memory exhausted (" +
                     std::to_string(maxFrames_) + " frames)");
    }
    frames_.emplace_back();
    ++framesInUse_;
    return static_cast<Frame>(frames_.size() - 1);
}

void
PhysMem::freeFrame(Frame f)
{
    REMORA_ASSERT(f < frames_.size());
    if (frames_[f]) {
        frames_[f].reset();
        --framesMaterialised_;
    }
    freeList_.push_back(f);
    REMORA_ASSERT(framesInUse_ > 0);
    --framesInUse_;
}

std::span<const uint8_t>
PhysMem::readData(Frame f) const
{
    REMORA_ASSERT(f < frames_.size());
    const uint8_t *bytes = frames_[f] ? frames_[f].get() : kZeroPage;
    return {bytes, kPageBytes};
}

std::span<uint8_t>
PhysMem::frameData(Frame f)
{
    REMORA_ASSERT(f < frames_.size());
    if (!frames_[f]) {
        frames_[f] = std::make_unique<uint8_t[]>(kPageBytes);
        ++framesMaterialised_;
    }
    return {frames_[f].get(), kPageBytes};
}

} // namespace remora::mem
