/**
 * @file
 * Per-node message transport over the cell substrate.
 *
 * The Wire is the part of the kernel that touches the NIC: it encodes
 * Messages into raw cells (single-cell messages) or AAL5 frames, charges
 * the CPU for every word of programmed I/O, drains the RX FIFO on
 * interrupt, reassembles, decodes, and hands complete messages up. Both
 * the remote-memory engine and the RPC baseline sit on top of the same
 * Wire, so the two communication models being compared share an
 * identical data path.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "mem/node.h"
#include "net/aal5.h"
#include "obs/metrics.h"
#include "rmem/cost_model.h"
#include "rmem/protocol.h"
#include "sim/stats.h"
#include "sim/task.h"

namespace remora::rmem {

/** Kernel-side NIC driver: message framing, PIO costs, RX dispatch. */
class Wire
{
  public:
    /** Receives decoded messages; src is the sending node. */
    using Handler = std::function<void(net::NodeId src, Message &&msg)>;

    /**
     * @param node The owning node (CPU charged, NIC driven).
     * @param costs Shared cost model.
     */
    Wire(mem::Node &node, const CostModel &costs);

    Wire(const Wire &) = delete;
    Wire &operator=(const Wire &) = delete;

    /** Install the handler for remote-memory messages (engine). */
    void setRmemHandler(Handler handler) { rmemHandler_ = std::move(handler); }

    /** Install the handler for RPC envelope messages (transport). */
    void setRpcHandler(Handler handler) { rpcHandler_ = std::move(handler); }

    /**
     * Mark a peer as having the opposite byte order (§3.6): traffic to
     * and from it pays the per-word swap cost during PIO. Requests from
     * such peers carry an implicit swap indication (the paper's "bit in
     * each incoming request").
     */
    void
    setPeerByteSwapped(net::NodeId peer, bool swapped)
    {
        if (swapped) {
            swappedPeers_.insert(peer);
        } else {
            swappedPeers_.erase(peer);
        }
    }

    /** True when @p peer was marked opposite-byte-order. */
    bool
    peerByteSwapped(net::NodeId peer) const
    {
        return swappedPeers_.count(peer) != 0;
    }

    /**
     * Encode and transmit @p msg to @p dst.
     *
     * CPU cost (header formatting plus per-cell PIO) is charged to
     * @p category; cells enter the wire as their PIO completes, so a
     * multi-cell frame pipelines with transmission.
     *
     * @return Future resolved when the last cell has been accepted by
     *         the NIC (the paper's "accepted by the network" point).
     *
     * @param traceOp Async op this transmission belongs to; cells are
     *        stamped with it so the receiver links its events into the
     *        same trace DAG. 0 adopts the ambient OpScope (if any).
     */
    sim::Future<void> send(net::NodeId dst, const Message &msg,
                           sim::CpuCategory category, uint64_t traceOp = 0);

    /**
     * Turn on at-most-once, in-order delivery toward every peer: each
     * outgoing message rides a sequenced, checksummed envelope, is
     * retransmitted with exponential backoff until the peer's
     * cumulative ACK covers it, and is deduplicated on the serve side
     * before it can reach a handler — a retransmitted WRITE or CAS
     * never re-executes against the engine. Departure from the paper's
     * §3.7 lossless-cluster assumption; see DESIGN.md §15. Off by
     * default: the paper's lossless cluster needs none of it, and the
     * zero-fault hot path must stay untouched.
     */
    void enableReliability() { reliable_ = true; }

    /** True when the reliability layer is on. */
    bool reliable() const { return reliable_; }

    /** Messages sent, by count. */
    uint64_t messagesSent() const { return msgsSent_.value(); }

    /** Messages received and dispatched. */
    uint64_t messagesReceived() const { return msgsReceived_.value(); }

    /** Payload bytes sent (before cell padding). */
    uint64_t bytesSent() const { return bytesSent_.value(); }

    /** Malformed messages dropped on receive. */
    uint64_t decodeErrors() const { return decodeErrors_.value(); }

    /** Envelope retransmissions performed. */
    uint64_t retransmits() const { return retransmits_.value(); }

    /** Duplicate envelopes discarded before reaching a handler. */
    uint64_t dupsDropped() const { return dupsDropped_.value(); }

    /** Envelopes abandoned after kMaxAttempts (receiver unreachable). */
    uint64_t sendFailures() const { return sendFailures_.value(); }

    /** Cumulative acknowledgements transmitted. */
    uint64_t acksSent() const { return acksSent_.value(); }

    /** Envelopes dropped because the inner checksum failed. */
    uint64_t corruptEnvelopes() const { return corruptEnvelopes_.value(); }

    /** Extra envelopes produced by splitting oversize messages. */
    uint64_t fragmentsSent() const { return fragmentsSent_.value(); }

    /** The node's AAL5 reassembler (error/resync counters). */
    const net::Aal5Reassembler &reassembler() const { return reassembler_; }

    /** The owning node. */
    mem::Node &node() { return node_; }

    /** The cost model in force. */
    const CostModel &costs() const { return costs_; }

    /** Register message counters under "<prefix>.msgs_sent" etc. */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** PTI bit marking a raw (non-AAL5) single-cell message. */
    static constexpr uint8_t kPtiRaw = 0x2;

    /** RX interrupt entry: start the drain task if idle. */
    void onRxInterrupt();

    /** Drain the RX FIFO, charging PIO per cell, dispatching messages. */
    sim::Task<void> drainLoop();

    /**
     * Hand one decoded message to the registered handler, with
     * @p traceOp ambient so the handler's spans join the sender's op.
     */
    void route(net::NodeId src, Message &&msg, uint64_t traceOp);

    /** Peel reliability envelopes/acks; route everything else. */
    void dispatch(net::NodeId src, Message &&msg, uint64_t traceOp);

    /** Per-peer transmit state of the reliability layer. */
    struct PeerTx
    {
        /** Highest sequence number assigned so far. */
        uint32_t lastSeq = 0;

        /** One envelope awaiting acknowledgement. */
        struct Unacked
        {
            std::vector<uint8_t> bytes;
            sim::CpuCategory category = sim::CpuCategory::kDataReply;
            uint64_t traceOp = 0;
            int attempts = 1;
            sim::Duration nextTimeout = 0;
            sim::EventId timer = 0;
        };
        std::map<uint32_t, Unacked> unacked;
    };

    /** Per-peer receive state of the reliability layer. */
    struct PeerRx
    {
        /** Highest sequence delivered in order. */
        uint32_t delivered = 0;

        /** Envelope held until the gap before it fills. */
        struct Held
        {
            std::vector<uint8_t> inner;
            uint64_t traceOp = 0;
            bool lastFrag = true;
        };
        std::map<uint32_t, Held> ahead;

        /** In-order fragments of a message still being reassembled. */
        std::vector<uint8_t> fragBuf;
    };

    /** Wrap @p inner in a SeqMsg, record it, arm its retransmit. */
    sim::Future<void> sendReliable(net::NodeId dst,
                                   std::vector<uint8_t> inner,
                                   sim::CpuCategory category,
                                   uint64_t traceOp);

    /**
     * Segment @p bytes into cells and push them through the TX path,
     * charging PIO. @p what labels the tx_frame trace span.
     *
     * @return Future resolved when the last cell enters the TX FIFO.
     */
    sim::Future<void> transmitBytes(net::NodeId dst,
                                    const std::vector<uint8_t> &bytes,
                                    const char *what,
                                    sim::CpuCategory category,
                                    uint64_t traceOp);

    /** Schedule the next retransmit probe for (dst, seq). */
    void armRetransmit(net::NodeId dst, uint32_t seq);

    /** Retransmit (dst, seq) or abandon it after kMaxAttempts. */
    void onRetransmitTimeout(net::NodeId dst, uint32_t seq);

    /** Receive one sequenced envelope: verify, dedup, order, ack. */
    void onSeqData(net::NodeId src, SeqMsg &&env, uint64_t traceOp);

    /** Receive a cumulative ack: retire covered envelopes. */
    void onAck(net::NodeId src, uint32_t cumSeq);

    /**
     * Accept one in-order envelope payload: buffer it if more
     * fragments follow; otherwise decode and route the reassembled
     * inner message.
     */
    void deliverInner(net::NodeId src, const std::vector<uint8_t> &inner,
                      bool lastFrag, uint64_t traceOp);

    /** Transmit a cumulative ack mirroring our receive state. */
    void sendAck(net::NodeId dst);

    mem::Node &node_;
    CostModel costs_;
    Handler rmemHandler_;
    Handler rpcHandler_;
    net::Aal5Reassembler reassembler_;
    std::unordered_set<net::NodeId> swappedPeers_;
    bool draining_ = false;
    bool reliable_ = false;
    std::unordered_map<net::NodeId, PeerTx> peerTx_;
    std::unordered_map<net::NodeId, PeerRx> peerRx_;
    sim::Counter msgsSent_;
    sim::Counter msgsReceived_;
    sim::Counter bytesSent_;
    sim::Counter decodeErrors_;
    sim::Counter retransmits_;
    sim::Counter dupsDropped_;
    sim::Counter sendFailures_;
    sim::Counter acksSent_;
    sim::Counter corruptEnvelopes_;
    sim::Counter fragmentsSent_;
};

} // namespace remora::rmem
