#include "mem/phys_mem.h"

#include <cstring>

#include "util/panic.h"

namespace remora::mem {

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
        std::memset(frames_[f].get(), 0, kPageBytes);
        ++framesInUse_;
        return f;
    }
    if (frames_.size() >= maxFrames_) {
        REMORA_FATAL("physical memory exhausted (" +
                     std::to_string(maxFrames_) + " frames)");
    }
    frames_.push_back(std::make_unique<uint8_t[]>(kPageBytes));
    ++framesInUse_;
    return static_cast<Frame>(frames_.size() - 1);
}

void
PhysMem::freeFrame(Frame f)
{
    REMORA_ASSERT(f < frames_.size());
    freeList_.push_back(f);
    REMORA_ASSERT(framesInUse_ > 0);
    --framesInUse_;
}

std::span<uint8_t>
PhysMem::frameData(Frame f)
{
    REMORA_ASSERT(f < frames_.size());
    return {frames_[f].get(), kPageBytes};
}

} // namespace remora::mem
