#include "mem/address_space.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/panic.h"

namespace remora::mem {

namespace {

/** Start addresses at a non-zero base so 0 can act as "null". */
constexpr Vaddr kRegionBase = 0x0001'0000;

constexpr Vaddr
pageAlignDown(Vaddr va)
{
    return va & ~Vaddr{kPageBytes - 1};
}

constexpr size_t
pagesCovering(Vaddr va, size_t len)
{
    if (len == 0) {
        return 0;
    }
    Vaddr first = pageAlignDown(va);
    Vaddr last = pageAlignDown(va + len - 1);
    return static_cast<size_t>((last - first) / kPageBytes) + 1;
}

} // namespace

AddressSpace::AddressSpace(PhysMem &phys)
    : phys_(phys), nextRegion_(kRegionBase)
{}

AddressSpace::~AddressSpace()
{
    // Free every mapped frame back to the node.
    for (Vaddr va = kRegionBase; va < nextRegion_; va += kPageBytes) {
        if (const Pte *pte = pageTable_.lookup(va)) {
            phys_.freeFrame(pte->frame);
            pageTable_.unmap(va);
        }
    }
}

Vaddr
AddressSpace::allocRegion(size_t bytes, bool writable)
{
    REMORA_ASSERT(bytes > 0);
    size_t pages = (bytes + kPageBytes - 1) / kPageBytes;
    Vaddr base = nextRegion_;
    if (base + pages * kPageBytes > PageTable::kVaLimit) {
        REMORA_FATAL("virtual address space exhausted");
    }
    for (size_t i = 0; i < pages; ++i) {
        Frame f = phys_.allocFrame();
        pageTable_.map(base + i * kPageBytes, f, writable);
    }
    nextRegion_ = base + pages * kPageBytes;
    return base;
}

util::Status
AddressSpace::read(Vaddr va, std::span<uint8_t> out) const
{
    size_t done = 0;
    while (done < out.size()) {
        Vaddr cur = va + done;
        const Pte *pte = pageTable_.lookup(cur);
        if (pte == nullptr) {
            return util::Status(util::ErrorCode::kOutOfBounds,
                                "read fault at va " + std::to_string(cur));
        }
        size_t pageOff = cur & (kPageBytes - 1);
        size_t chunk = std::min(out.size() - done, kPageBytes - pageOff);
        auto frame = phys_.readData(pte->frame);
        std::memcpy(out.data() + done, frame.data() + pageOff, chunk);
        done += chunk;
    }
    if (observer_ && !out.empty()) {
        observer_(false, va, out.size());
    }
    return {};
}

util::Status
AddressSpace::write(Vaddr va, std::span<const uint8_t> data)
{
    size_t done = 0;
    while (done < data.size()) {
        Vaddr cur = va + done;
        const Pte *pte = pageTable_.lookup(cur);
        if (pte == nullptr) {
            return util::Status(util::ErrorCode::kOutOfBounds,
                                "write fault at va " + std::to_string(cur));
        }
        if (!pte->writable) {
            return util::Status(util::ErrorCode::kAccessDenied,
                                "write to read-only page");
        }
        size_t pageOff = cur & (kPageBytes - 1);
        size_t chunk = std::min(data.size() - done, kPageBytes - pageOff);
        auto frame = phys_.frameData(pte->frame);
        std::memcpy(frame.data() + pageOff, data.data() + done, chunk);
        done += chunk;
    }
    if (watchFire_ && va < watchVa_ + 4 && watchVa_ < va + data.size()) {
        watchFire_();
    }
    if (observer_ && !data.empty()) {
        observer_(true, va, data.size());
    }
    return {};
}

util::Result<uint32_t>
AddressSpace::readWord(Vaddr va) const
{
    if (va % 4 != 0) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "unaligned word read");
    }
    uint8_t buf[4];
    util::Status s = read(va, buf);
    if (!s.ok()) {
        return s;
    }
    return static_cast<uint32_t>(buf[0]) | (static_cast<uint32_t>(buf[1]) << 8) |
           (static_cast<uint32_t>(buf[2]) << 16) |
           (static_cast<uint32_t>(buf[3]) << 24);
}

util::Status
AddressSpace::writeWord(Vaddr va, uint32_t value)
{
    if (va % 4 != 0) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "unaligned word write");
    }
    uint8_t buf[4] = {
        static_cast<uint8_t>(value),
        static_cast<uint8_t>(value >> 8),
        static_cast<uint8_t>(value >> 16),
        static_cast<uint8_t>(value >> 24),
    };
    return write(va, buf);
}

bool
AddressSpace::watchWord(Vaddr va, sim::Callback fire)
{
    REMORA_ASSERT(va % 4 == 0);
    if (watchFire_) {
        return false;
    }
    watchVa_ = va;
    watchFire_ = std::move(fire);
    return true;
}

util::Status
AddressSpace::pin(Vaddr va, size_t len)
{
    size_t pages = pagesCovering(va, len);
    Vaddr base = pageAlignDown(va);
    for (size_t i = 0; i < pages; ++i) {
        Pte *pte = pageTable_.lookup(base + i * kPageBytes);
        if (pte == nullptr) {
            return util::Status(util::ErrorCode::kOutOfBounds,
                                "pin of unmapped page");
        }
        pte->pinned = true;
    }
    return {};
}

util::Status
AddressSpace::unpin(Vaddr va, size_t len)
{
    size_t pages = pagesCovering(va, len);
    Vaddr base = pageAlignDown(va);
    for (size_t i = 0; i < pages; ++i) {
        Pte *pte = pageTable_.lookup(base + i * kPageBytes);
        if (pte == nullptr) {
            return util::Status(util::ErrorCode::kOutOfBounds,
                                "unpin of unmapped page");
        }
        pte->pinned = false;
    }
    return {};
}

bool
AddressSpace::isMapped(Vaddr va, size_t len) const
{
    size_t pages = pagesCovering(va, len);
    Vaddr base = pageAlignDown(va);
    for (size_t i = 0; i < pages; ++i) {
        if (pageTable_.lookup(base + i * kPageBytes) == nullptr) {
            return false;
        }
    }
    return true;
}

} // namespace remora::mem
