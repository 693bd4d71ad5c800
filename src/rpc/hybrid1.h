/**
 * @file
 * Hybrid-1: RPC-like request/response built on remote memory (§5.1).
 *
 * "Unlike the previous two schemes, which are pure data transfer
 * schemes, this scheme uses a single write request with notification,
 * followed by one or more return write requests." Hybrid-1 is the
 * paper's stand-in for a fast conventional RPC when comparing against
 * pure data transfer, and the HY bars of Figures 2 and 3 are built on
 * it:
 *
 *  - the client remote-writes a request record (args + reply-segment
 *    coordinates) into its slot of the server's request segment, with
 *    the notify bit set;
 *  - the server process, blocked on the segment's notification channel,
 *    wakes (control transfer!), runs the procedure, and remote-writes
 *    the results back into the client's reply segment;
 *  - the client spin-waits at user level on the reply sequence word.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rmem/engine.h"
#include "sim/task.h"
#include "util/status.h"

namespace remora::rpc {

/**
 * Bytes per client request slot in the server's request segment, and of
 * each client's reply segment: a call's header plus arguments, or a
 * reply's header plus results, must fit.
 */
inline constexpr uint32_t kHybrid1SlotBytes = 16384;

/** Sizing/behaviour knobs for a Hybrid-1 endpoint pair. */
struct Hybrid1Params
{
    /** Number of client slots. */
    uint32_t slots = 16;
    /** Client spin-wait poll interval for the reply word. */
    sim::Duration pollInterval = sim::usec(2);
};

/** Server half: owns the request segment and the dispatch loop. */
class Hybrid1Server
{
  public:
    /**
     * A served procedure. Runs as a coroutine; should charge kProcExec
     * for its body.
     */
    using Proc = std::function<sim::Task<std::vector<uint8_t>>(
        net::NodeId src, std::vector<uint8_t> args)>;

    /**
     * @param engine The server node's remote-memory engine.
     * @param serverProcess The server process (owns the segment memory).
     * @param params Sizing.
     */
    Hybrid1Server(rmem::RmemEngine &engine, mem::Process &serverProcess,
                  const Hybrid1Params &params = {});

    /** Install the procedure run for each request. */
    void setHandler(Proc proc) { proc_ = std::move(proc); }

    /** Start the dispatch loop (blocks on the notification channel). */
    void start();

    /**
     * Assign the next free client slot (setup-time rendezvous; the
     * paper's equivalent is binding to the service).
     */
    uint32_t allocSlot();

    /** Handle importers use to reach the request segment. */
    rmem::ImportedSegment requestSegmentHandle() const { return handle_; }

    /** Requests served. */
    uint64_t served() const { return served_; }

  private:
    /** The dispatch loop: wait, parse, run, reply. */
    sim::Task<void> serveLoop();

    /**
     * Serve one request from @p slot. @p traceOp is the async op of the
     * client write that carried the notification, so the serve-side
     * spans and the reply write join the caller's trace DAG.
     */
    sim::Task<void> serveOne(net::NodeId src, uint32_t slot,
                             uint64_t traceOp);

    rmem::RmemEngine &engine_;
    mem::Process &process_;
    Hybrid1Params params_;
    mem::Vaddr segBase_ = 0;
    rmem::SegmentId segId_ = 0;
    rmem::ImportedSegment handle_;
    Proc proc_;
    uint32_t nextSlot_ = 0;
    uint64_t served_ = 0;
    bool started_ = false;
};

/** Client half: writes requests, spin-waits for replies. */
class Hybrid1Client
{
  public:
    /**
     * @param engine The client node's remote-memory engine.
     * @param clientProcess The client-side process (clerk).
     * @param server Handle to the server's request segment.
     * @param slot Slot index assigned by Hybrid1Server::allocSlot().
     * @param params Must match the server's.
     */
    Hybrid1Client(rmem::RmemEngine &engine, mem::Process &clientProcess,
                  const rmem::ImportedSegment &server, uint32_t slot,
                  const Hybrid1Params &params = {});

    /**
     * Issue one call: request write (with notification), then spin-wait
     * for the reply record.
     *
     * @param args Argument bytes (must fit the slot minus header).
     * @param timeout Zero = wait forever.
     */
    sim::Task<util::Result<std::vector<uint8_t>>> call(
        std::vector<uint8_t> args, sim::Duration timeout = 0);

  private:
    rmem::RmemEngine &engine_;
    mem::Process &process_;
    rmem::ImportedSegment server_;
    uint32_t slot_;
    Hybrid1Params params_;
    mem::Vaddr replyBase_ = 0;
    rmem::SegmentId replySegId_ = 0;
    rmem::ImportedSegment replyHandle_;
    uint32_t seq_ = 0;
};

} // namespace remora::rpc
