/**
 * @file
 * Exported-segment descriptors and the per-node kernel descriptor table.
 *
 * The paper's co-processor "contains descriptors that define remote
 * memory segments; each descriptor includes the destination segment
 * size, remote node address, and protection information". On the
 * exporting side, a descriptor binds a slot id to (owner process, base
 * virtual address, size, rights, generation, notification policy)
 * plus the segment's notification channel. The table holds 256 slots —
 * descriptor ids are one octet on the wire, mirroring the scarcity of
 * real descriptor registers.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "mem/node.h"
#include "rmem/cost_model.h"
#include "rmem/notification.h"
#include "rmem/segment.h"
#include "util/status.h"

namespace remora::rmem {

/** Kernel-side state of one exported segment. */
struct SegmentDescriptor
{
    bool valid = false;
    /** Owning process on the exporting node. */
    mem::Pid ownerPid = 0;
    /** Base virtual address in the owner's space. */
    mem::Vaddr base = 0;
    /** Segment length in bytes. */
    uint32_t size = 0;
    /** Rights granted to importers. */
    Rights rights = Rights::kNone;
    /** Current generation; requests with older generations NAK. */
    Generation generation = 0;
    /** Notification policy (§3.1.1: always / never / conditional). */
    NotifyPolicy policy = NotifyPolicy::kConditional;
    /** The segment's fd-style notification channel. */
    std::unique_ptr<NotificationChannel> channel;
    /** Diagnostic/export name. */
    std::string name;
};

/** Fixed-capacity descriptor table of an exporting kernel. */
class DescriptorTable
{
  public:
    /** Slots available per node (one-octet wire id). */
    static constexpr size_t kSlots = 256;

    /**
     * @param cpu The node's CPU (notification channels charge it).
     * @param costs Shared cost model.
     */
    DescriptorTable(sim::CpuResource &cpu, const CostModel &costs);

    /**
     * Claim a free slot and initialize its descriptor.
     *
     * The slot's generation is bumped (it survives slot reuse), so
     * handles to any previous occupant go stale.
     *
     * @return The slot id, or kResource when the table is full.
     */
    util::Result<SegmentId> allocate(mem::Pid owner, mem::Vaddr base,
                                     uint32_t size, Rights rights,
                                     NotifyPolicy policy,
                                     const std::string &name);

    /**
     * Invalidate a slot (segment revoked). The generation bump makes
     * all outstanding imports stale.
     */
    util::Status release(SegmentId id);

    /** Live descriptor for @p id, or nullptr when invalid. */
    SegmentDescriptor *get(SegmentId id);

    /**
     * Validate an incoming request against slot @p id.
     *
     * Checks: slot validity, generation match, rights and bounds. This
     * is the protection boundary of the whole model.
     *
     * @param id Slot the request names.
     * @param generation Generation the request carries.
     * @param offset Request start offset.
     * @param count Request byte count.
     * @param needed Rights the operation requires.
     * @return The descriptor on success; a specific error otherwise.
     */
    util::Result<SegmentDescriptor *> validate(SegmentId id,
                                               Generation generation,
                                               uint64_t offset, uint64_t count,
                                               Rights needed);

    /** Number of live descriptors. */
    size_t liveCount() const { return live_; }

  private:
    sim::CpuResource &cpu_;
    const CostModel &costs_;
    std::array<SegmentDescriptor, kSlots> slots_;
    std::array<Generation, kSlots> slotGeneration_{};
    size_t live_ = 0;
};

} // namespace remora::rmem
