/**
 * @file
 * A process virtual address space over a node's physical memory.
 *
 * Provides region allocation (the raw material for exported segments),
 * byte-level access through the page table (so every remote access in
 * the simulation really walks translations and can fault), single-word
 * atomic access used by the remote-memory atomicity guarantee, and
 * pin/unpin ("application-based pinning/unpinning of virtual memory
 * pages", §3.1.1).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "mem/page_table.h"
#include "mem/phys_mem.h"
#include "sim/simulator.h"
#include "util/status.h"

namespace remora::mem {

/** One process's virtual memory. */
class AddressSpace
{
  public:
    /**
     * @param phys Backing physical memory (the owning node's).
     */
    explicit AddressSpace(PhysMem &phys);

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    ~AddressSpace();

    /**
     * Allocate and map a fresh region of @p bytes (page-granular).
     *
     * @param bytes Region size; rounded up to whole pages.
     * @param writable Whether stores are permitted.
     * @return Page-aligned base virtual address.
     */
    Vaddr allocRegion(size_t bytes, bool writable = true);

    /**
     * Copy bytes out of the address space.
     *
     * @return kOutOfBounds if any page in the range is unmapped.
     */
    util::Status read(Vaddr va, std::span<uint8_t> out) const;

    /**
     * Copy bytes into the address space.
     *
     * @return kOutOfBounds on unmapped pages, kAccessDenied on
     *         read-only pages.
     */
    util::Status write(Vaddr va, std::span<const uint8_t> data);

    /**
     * Read one naturally-aligned 32-bit word. Word access is the unit
     * of the local/remote atomicity guarantee.
     */
    util::Result<uint32_t> readWord(Vaddr va) const;

    /** Write one naturally-aligned 32-bit word. */
    util::Status writeWord(Vaddr va, uint32_t value);

    /** Pin the pages covering [va, va+len) for remote access. */
    util::Status pin(Vaddr va, size_t len);

    /** Unpin the pages covering [va, va+len). */
    util::Status unpin(Vaddr va, size_t len);

    /** True when every page in [va, va+len) is mapped. */
    bool isMapped(Vaddr va, size_t len) const;

    /** The translation structure (walked by the kernel emulation). */
    PageTable &pageTable() { return pageTable_; }

    /**
     * Observer invoked after every successful read/write (word accesses
     * report once, as a 4-byte access). This is the instrumentation
     * point the happens-before race detector uses to see the exporting
     * process's *own* loads and stores, which remote accesses race with
     * but which never cross the rmem engine. At most one observer; the
     * rmem layer installs it lazily when a segment of this space is
     * exported while the detector is armed.
     */
    using AccessObserver =
        std::function<void(bool write, Vaddr va, size_t len)>;

    /** Install (or, with an empty function, remove) the observer. */
    void setAccessObserver(AccessObserver obs) { observer_ = std::move(obs); }

    /** True when an observer is installed. */
    bool hasAccessObserver() const { return static_cast<bool>(observer_); }

    /**
     * Arm the space's one-word write watch: after any successful store
     * that writes a byte of the aligned word at @p va, write() calls
     * @p fire. A space holds one watch, apart from the access observer.
     *
     * @return False, arming nothing, when a watch is already armed.
     */
    bool watchWord(Vaddr va, sim::Callback fire);

    /** Disarm the write watch. */
    void unwatchWord() { watchFire_.reset(); }

  private:
    PhysMem &phys_;
    PageTable pageTable_;
    Vaddr nextRegion_;
    // Mutable: reads are logically const but still observable events.
    mutable AccessObserver observer_;
    Vaddr watchVa_ = 0;
    sim::Callback watchFire_;
};

} // namespace remora::mem
