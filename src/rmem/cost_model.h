/**
 * @file
 * The calibrated cost model: every simulated CPU cost in one place.
 *
 * The paper's prototype emulated the meta-instructions in the Ultrix
 * kernel of a DECstation 5000/200 (25 MHz MIPS R3000) driving a FORE
 * TCA-100 (programmed I/O, no DMA). The constants below are calibrated
 * so the Table 2 measurements come out of the simulation:
 *
 *   remote write (1 cell, 40 B) : 30 us
 *   remote read  (1 cell, 40 B) : 45 us
 *   remote CAS                  : 38 us
 *   block-write throughput (4K) : 35.4 Mb/s
 *   notification overhead       : 260 us
 *
 * Derivations (sender side of a small write, for example):
 *   trap + emulation entry/exit  ~ a few us on a 25 MHz R3000
 *   descriptor/rights/bounds     ~ table lookups + compares
 *   per-word PIO to the TX FIFO  ~ hundreds of ns per TURBOChannel store
 * The receive side adds interrupt dispatch, per-word PIO drain,
 * translation-table walk, and the memory copy into the target space.
 *
 * The calibration test (tests/test_calibration.cc) pins the emergent
 * Table 2 numbers; all other experiments share these constants, so the
 * comparative results are produced by structure, not by per-experiment
 * tuning.
 */
#pragma once

#include "sim/time.h"

namespace remora::rmem {

/** CPU costs of the kernel emulation layer (see file comment). */
struct CostModel
{
    /** Meta-instruction trap entry + exit (reserved-opcode fault path). */
    sim::Duration trapOverhead = sim::usec(3.0);

    /** Descriptor lookup + rights + generation + bounds checks. */
    sim::Duration validateCost = sim::usec(1.5);

    /** Translation-table walk, charged once per page touched. */
    sim::Duration translatePageCost = sim::usec(0.8);

    /**
     * One 32-bit word of programmed I/O to/from a NIC FIFO when the
     * data lives in registers (the small-transfer path: the paper's
     * message registers shared with the co-processor emulation).
     */
    sim::Duration pioWordCost = sim::usec(0.30);

    /**
     * One word of PIO on the *block* path: memory load + TURBOChannel
     * store (or the reverse) + loop overhead. This, not the 140 Mb/s
     * wire, is why the paper's block throughput tops out at 35.4 Mb/s.
     */
    sim::Duration pioWordBlockCost = sim::usec(0.66);

    /** Words of PIO per cell moved (53-octet cell, word-rounded). */
    static constexpr int kCellPioWords = 14;

    /** Words of header PIO on a raw single-cell message. */
    static constexpr int kRawHeaderWords = 2;

    /** RX interrupt entry, dispatch, and exit. */
    sim::Duration rxInterruptCost = sim::usec(4.5);

    /** Per-message demux/reassembly bookkeeping on receive. */
    sim::Duration msgHandleCost = sim::usec(1.0);

    /** Memory copy, per 32-bit word, into/out of a process space. */
    sim::Duration copyWordCost = sim::usec(0.12);

    /** Building a request header / loading message registers. */
    sim::Duration sendFormatCost = sim::usec(1.0);

    /** Executing the compare-and-swap memory operation itself. */
    sim::Duration casExecCost = sim::usec(0.8);

    /**
     * Initiator-side marginal cost of one sub-op in a vectored
     * meta-instruction: formatting its descriptor into the batch and
     * loading its message registers. The trap, header, and validation
     * are charged once per batch — that single-charging is the entire
     * point of the vectored path.
     */
    sim::Duration vectorSubOpIssueCost = sim::usec(0.4);

    /**
     * Serving-side marginal cost of one sub-op in a vectored request:
     * demuxing its descriptor from the batch and dispatching it.
     * Validation is charged once per distinct (slot, generation,
     * rights) key via the serving-side validation cache.
     */
    sim::Duration vectorSubOpServeCost = sim::usec(0.3);

    /**
     * Delivering a notification to a process: marking the segment's
     * descriptor readable, waking the blocked process (two context
     * switches), and running the select/signal dispatch. This is the
     * dominant control-transfer cost and the reason the paper separates
     * control from data (Table 2: 260 us measured overhead; the wire
     * and FIFO parts of a notified request account for the remainder).
     */
    sim::Duration notifyDispatchCost = sim::usec(264);

    /**
     * Per-word encryption/decryption cost applied to all wire traffic
     * when non-zero (§3.5). Zero models the trusted-cluster default;
     * ~50 ns/word models AN1-style link hardware ("it is feasible to do
     * encryption and decryption in hardware"); microseconds per word
     * models software DES on a 25 MHz R3000, which the paper predicts
     * "will not provide adequate performance".
     */
    sim::Duration cryptoWordCost = 0;

    /** CPU cost of one block-path (memory-sourced) cell of PIO. */
    sim::Duration
    blockCellPioCost() const
    {
        return kCellPioWords * pioWordBlockCost;
    }

    /** Sender-side PIO cost of a raw message of @p bytes. */
    sim::Duration
    rawSendPioCost(size_t bytes) const
    {
        auto words =
            static_cast<sim::Duration>((bytes + 3) / 4 + kRawHeaderWords);
        return words * pioWordCost;
    }

    /** CPU cost of copying @p bytes to/from process memory. */
    sim::Duration
    copyCost(size_t bytes) const
    {
        return static_cast<sim::Duration>((bytes + 3) / 4) * copyWordCost;
    }

    /** CPU cost of encrypting/decrypting @p bytes (zero when disabled). */
    sim::Duration
    cryptoCost(size_t bytes) const
    {
        return static_cast<sim::Duration>((bytes + 3) / 4) * cryptoWordCost;
    }
};

} // namespace remora::rmem
