#include "rmem/descriptor.h"

namespace remora::rmem {

DescriptorTable::DescriptorTable(sim::CpuResource &cpu,
                                 const CostModel &costs)
    : cpu_(cpu), costs_(costs)
{}

util::Result<SegmentId>
DescriptorTable::allocate(mem::Pid owner, mem::Vaddr base, uint32_t size,
                          Rights rights, NotifyPolicy policy,
                          const std::string &name)
{
    if (live_ >= kSlots) {
        return util::Status(util::ErrorCode::kResource,
                            "descriptor table full");
    }
    // First-fit from slot zero: freed slots are reused immediately (the
    // generation bump keeps stale handles out), and boot-time exports
    // land in deterministic well-known slots.
    for (size_t idx = 0; idx < kSlots; ++idx) {
        if (slots_[idx].valid) {
            continue;
        }
        SegmentDescriptor &d = slots_[idx];
        // Generation survives reuse so stale handles to a prior
        // occupant of this slot are rejected.
        slotGeneration_[idx] =
            static_cast<Generation>(slotGeneration_[idx] + 1);
        d.valid = true;
        d.ownerPid = owner;
        d.base = base;
        d.size = size;
        d.rights = rights;
        d.generation = slotGeneration_[idx];
        d.policy = policy;
        d.channel = std::make_unique<NotificationChannel>(cpu_, costs_);
        d.name = name;
        ++live_;
        return static_cast<SegmentId>(idx);
    }
    return util::Status(util::ErrorCode::kResource, "descriptor table full");
}

util::Status
DescriptorTable::release(SegmentId id)
{
    SegmentDescriptor &d = slots_[id];
    if (!d.valid) {
        return util::Status(util::ErrorCode::kBadDescriptor,
                            "release of invalid descriptor");
    }
    d.valid = false;
    d.channel.reset();
    // Bump the stored generation so even a racing request that read the
    // old descriptor id NAKs as stale.
    slotGeneration_[id] = static_cast<Generation>(slotGeneration_[id] + 1);
    --live_;
    return {};
}

SegmentDescriptor *
DescriptorTable::get(SegmentId id)
{
    SegmentDescriptor &d = slots_[id];
    return d.valid ? &d : nullptr;
}

util::Result<SegmentDescriptor *>
DescriptorTable::validate(SegmentId id, Generation generation,
                          uint64_t offset, uint64_t count, Rights needed)
{
    SegmentDescriptor &d = slots_[id];
    if (!d.valid) {
        return util::Status(util::ErrorCode::kBadDescriptor,
                            "no such segment");
    }
    if (d.generation != generation) {
        return util::Status(util::ErrorCode::kStaleGeneration,
                            "stale segment generation");
    }
    if (!hasRights(d.rights, needed)) {
        return util::Status(util::ErrorCode::kAccessDenied,
                            "operation not permitted on segment");
    }
    // Overflow-safe bounds check: offset + count must not wrap.
    if (offset > d.size || count > d.size - offset) {
        return util::Status(util::ErrorCode::kOutOfBounds,
                            "request outside segment bounds");
    }
    return &d;
}

} // namespace remora::rmem
