#include "rmem/wire.h"

#include <algorithm>
#include <cstring>

#include "obs/trace.h"
#include "sim/logger.h"
#include "util/crc.h"
#include "util/panic.h"

namespace remora::rmem {

namespace {

/** First retransmit fires this long after transmission. */
constexpr sim::Duration kRetransmitTimeout = sim::usec(500);
/** The timeout doubles per attempt; give up after this many. */
constexpr int kMaxAttempts = 12;
/**
 * Largest inner-message slice carried per sequenced envelope; bigger
 * messages are split across consecutive envelopes and reassembled in
 * order on the far side. Bounding the retransmission unit to ~11 cells
 * is what makes large frames survivable: at a 5% cell-drop rate a
 * 480-byte fragment still arrives intact more often than not, while a
 * 24 KB frame (~500 cells) retransmitted whole would essentially never
 * land.
 */
constexpr size_t kMaxFragmentBytes = 480;

/**
 * Envelope checksum covering the sequence number AND the inner bytes.
 * Small envelopes ride raw single cells with no AAL5 CRC behind them;
 * if the CRC covered only the payload, a flipped seq bit could deliver
 * a message at the wrong stream position (breaking FIFO and dedup).
 */
uint32_t
envelopeCrc(uint32_t seq, uint8_t lastFrag, std::span<const uint8_t> inner)
{
    util::Crc32 crc;
    uint8_t seqBytes[5] = {
        static_cast<uint8_t>(seq),
        static_cast<uint8_t>(seq >> 8),
        static_cast<uint8_t>(seq >> 16),
        static_cast<uint8_t>(seq >> 24),
        lastFrag,
    };
    crc.update(seqBytes);
    crc.update(inner);
    return crc.value();
}

} // namespace

Wire::Wire(mem::Node &node, const CostModel &costs)
    : node_(node), costs_(costs)
{
    node_.nic().setRxInterrupt([this] { onRxInterrupt(); });
}

sim::Future<void>
Wire::send(net::NodeId dst, const Message &msg, sim::CpuCategory category,
           uint64_t traceOp)
{
    if (traceOp == 0) {
        traceOp = obs::TraceRecorder::currentOp();
    }
    std::vector<uint8_t> bytes = encodeMessage(msg);
    msgsSent_.inc();
    bytesSent_.inc(bytes.size());

    MsgType type = messageType(msg);
    // Acks ride outside the sequenced stream (they ARE the stream's
    // bookkeeping); everything else gets wrapped when reliability is on.
    if (reliable_ && type != MsgType::kAck && type != MsgType::kSeqData) {
        return sendReliable(dst, std::move(bytes), category, traceOp);
    }
    return transmitBytes(dst, bytes, msgTypeName(type), category, traceOp);
}

sim::Future<void>
Wire::transmitBytes(net::NodeId dst, const std::vector<uint8_t> &bytes,
                    const char *what, sim::CpuCategory category,
                    uint64_t traceOp)
{
    std::vector<net::Cell> cells;
    if (bytes.size() <= net::Cell::kPayloadBytes) {
        // Single raw cell, as the FORE driver sent small requests.
        net::Cell c;
        c.vpi = dst;
        c.vci = node_.id();
        c.pti = kPtiRaw;
        c.setLastOfFrame(true);
        std::memcpy(c.payload.data(), bytes.data(), bytes.size());
        cells.push_back(c);
    } else {
        cells = net::aal5Segment(dst, node_.id(), bytes);
    }
    for (net::Cell &c : cells) {
        c.traceOp = traceOp;
    }

    // Raw single-cell messages come from registers (cheap PIO of only
    // the words used); AAL5 frames move memory through the FIFO a word
    // at a time (the expensive block path).
    bool raw = (cells.size() == 1 && (cells[0].pti & kPtiRaw) != 0);
    sim::Duration perCell = raw ? costs_.rawSendPioCost(bytes.size())
                                : costs_.blockCellPioCost();
    // Optional link encryption (§3.5): every outgoing word is ciphered.
    perCell += raw ? costs_.cryptoCost(bytes.size())
                   : costs_.cryptoCost(net::Cell::kPayloadBytes);
    // Heterogeneity (§3.6): byte-swap folded into the PIO loop when the
    // destination has the opposite byte order. Only message-payload
    // words are swapped — the AAL5 trailer and pad of the final cell
    // are order-neutral — so the charge is per payload word of the
    // frame, applied below cell by cell.
    bool swap = peerByteSwapped(dst);

    // Span covering header format + per-cell PIO until the last cell
    // enters the TX FIFO (the "accepted by the network" point).
    obs::SpanId txSpan = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        txSpan = obs::TraceRecorder::instance().beginSpanFor(
            traceOp, node_.name(), "net", "tx_frame",
            std::string(what) + " dst=" + std::to_string(dst) + " bytes=" +
                std::to_string(bytes.size()) + " cells=" +
                std::to_string(cells.size()));
    }

    // One object per frame holds what the per-cell completions share,
    // so each captures only an index and its event stays allocation-free.
    struct TxFrame
    {
        std::vector<net::Cell> cells;
        sim::Promise<void> accepted;
        obs::SpanId span;
    };
    auto frame = std::make_shared<TxFrame>(TxFrame{
        std::move(cells), sim::Promise<void>(node_.simulator()), txSpan});
    auto &cpu = node_.cpu();
    cpu.post(costs_.sendFormatCost, category);
    for (size_t i = 0; i < frame->cells.size(); ++i) {
        // Each cell enters the TX FIFO as its PIO completes, so the wire
        // overlaps with the CPU filling subsequent cells.
        sim::Duration cellCost = perCell;
        if (swap) {
            // Message bytes this cell actually carries (the tail cell
            // may be mostly trailer/pad). Summed over the frame this is
            // exactly ceil(bytes/4) swapped words, charged once.
            size_t start = i * net::Cell::kPayloadBytes;
            size_t in = raw ? bytes.size()
                            : (start < bytes.size()
                                   ? std::min<size_t>(
                                         net::Cell::kPayloadBytes,
                                         bytes.size() - start)
                                   : 0);
            cellCost += static_cast<sim::Duration>((in + 3) / 4) *
                        costs_.byteSwapWordCost;
        }
        auto push = [this, frame, i] {
            node_.nic().pushTx(frame->cells[i]);
            if (i + 1 == frame->cells.size()) {
                obs::TraceRecorder::instance().endSpan(frame->span);
                frame->accepted.set();
            }
        };
        static_assert(sim::Callback::kFitsInline<decltype(push)>);
        cpu.post(cellCost, category, std::move(push));
    }
    return frame->accepted.future();
}

void
Wire::onRxInterrupt()
{
    if (draining_) {
        return;
    }
    draining_ = true;
    node_.nic().setDraining(true);
    drainLoop().detach();
}

sim::Task<void>
Wire::drainLoop()
{
    // Explicit begin/end (not TraceScope): the coroutine suspends, and
    // the span should close when the drain finishes, not when the frame
    // unwinds.
    obs::SpanId drainSpan = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        drainSpan = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "net", "rx_drain",
            "fifo=" + std::to_string(node_.nic().rxDepth()));
    }
    auto &cpu = node_.cpu();
    co_await cpu.use(costs_.rxInterruptCost, sim::CpuCategory::kDataReceive);
    while (auto cell = node_.nic().popRx()) {
        if ((cell->pti & kPtiRaw) != 0) {
            // Register-path drain: the emulation reads the header words,
            // learns the message length, and moves only those words.
            size_t consumed = 0;
            auto decoded = decodeMessage(cell->payload, &consumed);
            sim::Duration drainCost = costs_.rawSendPioCost(consumed) +
                                      costs_.cryptoCost(consumed);
            if (peerByteSwapped(cell->vci)) {
                drainCost += static_cast<sim::Duration>((consumed + 3) / 4) *
                             costs_.byteSwapWordCost;
            }
            // Op-attributed span over this message's own drain PIO, so
            // the critical-path analyzer books it as software rather
            // than leaving a gap (we're inside a coroutine, so the op
            // must be passed explicitly — ambient scope won't survive).
            obs::SpanId msgSpan = obs::kNoSpan;
            if (obs::TraceRecorder::on() && cell->traceOp != 0) {
                msgSpan = obs::TraceRecorder::instance().beginSpanFor(
                    cell->traceOp, node_.name(), "net", "rx_msg_pio",
                    "src=" + std::to_string(cell->vci));
            }
            co_await cpu.use(drainCost, sim::CpuCategory::kDataReceive);
            obs::TraceRecorder::instance().endSpan(msgSpan);
            if (!decoded.ok()) {
                decodeErrors_.inc();
                continue;
            }
            dispatch(cell->vci, decoded.take(), cell->traceOp);
        } else {
            // Memory-bound block path: whole cells, word at a time. The
            // byte-swap is NOT charged here — pad and trailer words are
            // order-neutral, so the swap bills once per message-payload
            // word after reassembly, below.
            sim::Duration drainCost =
                costs_.blockCellPioCost() +
                costs_.cryptoCost(net::Cell::kPayloadBytes);
            obs::SpanId cellSpan = obs::kNoSpan;
            if (obs::TraceRecorder::on() && cell->traceOp != 0) {
                cellSpan = obs::TraceRecorder::instance().beginSpanFor(
                    cell->traceOp, node_.name(), "net", "rx_cell_pio",
                    "src=" + std::to_string(cell->vci));
            }
            co_await cpu.use(drainCost, sim::CpuCategory::kDataReceive);
            obs::TraceRecorder::instance().endSpan(cellSpan);
            if (auto frame = reassembler_.feed(*cell)) {
                size_t consumed = 0;
                auto decoded = decodeMessage(frame->payload, &consumed);
                if (!decoded.ok()) {
                    decodeErrors_.inc();
                    continue;
                }
                if (peerByteSwapped(frame->srcVci)) {
                    // One swap pass over the message's payload words —
                    // same total the sender charged on its way out.
                    obs::SpanId swapSpan = obs::kNoSpan;
                    if (obs::TraceRecorder::on() && frame->traceOp != 0) {
                        swapSpan =
                            obs::TraceRecorder::instance().beginSpanFor(
                                frame->traceOp, node_.name(), "net",
                                "rx_swap_pio",
                                "bytes=" + std::to_string(consumed));
                    }
                    co_await cpu.use(
                        static_cast<sim::Duration>((consumed + 3) / 4) *
                            costs_.byteSwapWordCost,
                        sim::CpuCategory::kDataReceive);
                    obs::TraceRecorder::instance().endSpan(swapSpan);
                }
                dispatch(frame->srcVci, decoded.take(), frame->traceOp);
            }
        }
    }
    draining_ = false;
    node_.nic().setDraining(false);
    obs::TraceRecorder::instance().endSpan(drainSpan);
    // Cells that arrived during the final check raise a fresh interrupt.
}

void
Wire::registerStats(obs::MetricRegistry &reg, const std::string &prefix) const
{
    reg.add(prefix + ".msgs_sent", msgsSent_);
    reg.add(prefix + ".msgs_received", msgsReceived_);
    reg.add(prefix + ".bytes_sent", bytesSent_);
    reg.add(prefix + ".decode_errors", decodeErrors_);
    reg.add(prefix + ".retransmits", retransmits_);
    reg.add(prefix + ".dups_dropped", dupsDropped_);
    reg.add(prefix + ".send_failures", sendFailures_);
    reg.add(prefix + ".acks_sent", acksSent_);
    reg.add(prefix + ".corrupt_envelopes", corruptEnvelopes_);
    reg.add(prefix + ".fragments_sent", fragmentsSent_);
    reassembler_.registerStats(reg, prefix + ".aal5");
}

void
Wire::dispatch(net::NodeId src, Message &&msg, uint64_t traceOp)
{
    switch (messageType(msg)) {
      case MsgType::kAck:
        onAck(src, std::get<AckMsg>(msg).cumSeq);
        return;
      case MsgType::kSeqData:
        onSeqData(src, std::move(std::get<SeqMsg>(msg)), traceOp);
        return;
      default:
        msgsReceived_.inc();
        route(src, std::move(msg), traceOp);
    }
}

sim::Future<void>
Wire::sendReliable(net::NodeId dst, std::vector<uint8_t> inner,
                   sim::CpuCategory category, uint64_t traceOp)
{
    // Split oversize messages so every envelope — the unit of loss,
    // retransmission, and checksum — spans only a handful of cells. A
    // multi-block readv response is hundreds of cells; on a lossy link
    // the probability of the whole frame surviving any single attempt
    // is effectively zero, so retransmitting it monolithically would
    // never converge. Fragments share the per-peer sequence space and
    // reassemble in order on the far side.
    PeerTx &tx = peerTx_[dst];
    sim::Future<void> accepted;
    size_t off = 0;
    do {
        size_t take = std::min(kMaxFragmentBytes, inner.size() - off);
        uint32_t seq = ++tx.lastSeq;
        SeqMsg env;
        env.seq = seq;
        env.lastFrag = (off + take == inner.size()) ? 1 : 0;
        env.inner.assign(inner.begin() + static_cast<ptrdiff_t>(off),
                         inner.begin() + static_cast<ptrdiff_t>(off + take));
        env.innerCrc = envelopeCrc(seq, env.lastFrag, env.inner);
        std::vector<uint8_t> bytes = encodeMessage(Message(std::move(env)));

        auto [it, inserted] = tx.unacked.try_emplace(seq);
        REMORA_ASSERT(inserted);
        PeerTx::Unacked &u = it->second;
        u.bytes = std::move(bytes);
        u.category = category;
        u.traceOp = traceOp;
        u.attempts = 1;
        u.nextTimeout = kRetransmitTimeout;
        armRetransmit(dst, seq);
        if (off > 0) {
            fragmentsSent_.inc();
        }
        // The returned future tracks the final fragment; earlier ones
        // enter the TX FIFO ahead of it through the same CPU queue.
        accepted = transmitBytes(dst, u.bytes, "seq_data", category, traceOp);
        off += take;
    } while (off < inner.size());
    return accepted;
}

void
Wire::armRetransmit(net::NodeId dst, uint32_t seq)
{
    PeerTx::Unacked &u = peerTx_[dst].unacked[seq];
    u.timer = node_.simulator().schedule(
        u.nextTimeout, [this, dst, seq] { onRetransmitTimeout(dst, seq); });
}

void
Wire::onRetransmitTimeout(net::NodeId dst, uint32_t seq)
{
    auto txIt = peerTx_.find(dst);
    if (txIt == peerTx_.end()) {
        return;
    }
    auto it = txIt->second.unacked.find(seq);
    if (it == txIt->second.unacked.end()) {
        return; // acked in the meantime
    }
    PeerTx::Unacked &u = it->second;
    if (u.attempts >= kMaxAttempts) {
        // At-most-once gives up here: the message may or may not have
        // been applied; the layers above own the user-visible outcome
        // (engine timeouts, RPC retry budgets, DFS fallback).
        sendFailures_.inc();
        node_.simulator().noteDigest(
            "wire.send_failure", (static_cast<uint64_t>(dst) << 32) | seq);
        REMORA_LOG(kWarn, "wire",
                   node_.name() << ": abandoning seq " << seq << " to node "
                                << dst << " after " << u.attempts
                                << " attempts");
        txIt->second.unacked.erase(it);
        return;
    }
    ++u.attempts;
    retransmits_.inc();
    node_.simulator().noteDigest("wire.retransmit",
                                 (static_cast<uint64_t>(dst) << 32) | seq);
    if (obs::TraceRecorder::on() && u.traceOp != 0) {
        obs::TraceRecorder::instance().instant(
            node_.name(), "net", "retransmit",
            "dst=" + std::to_string(dst) + " seq=" + std::to_string(seq) +
                " attempt=" + std::to_string(u.attempts));
    }
    u.nextTimeout *= 2;
    transmitBytes(dst, u.bytes, "seq_data", u.category, u.traceOp);
    armRetransmit(dst, seq);
}

void
Wire::onSeqData(net::NodeId src, SeqMsg &&env, uint64_t traceOp)
{
    if (envelopeCrc(env.seq, env.lastFrag, env.inner) != env.innerCrc) {
        // Damaged in flight; treat as loss — no ack, so the sender's
        // retransmit recovers it.
        corruptEnvelopes_.inc();
        return;
    }
    PeerRx &rx = peerRx_[src];
    if (env.seq <= rx.delivered) {
        // Retransmitted after our ack was lost: the apply already
        // happened, so this must NOT reach a handler again. Re-ack.
        dupsDropped_.inc();
        node_.simulator().noteDigest(
            "wire.dup", (static_cast<uint64_t>(src) << 32) | env.seq);
        sendAck(src);
        return;
    }
    if (env.seq > rx.delivered + 1) {
        // A predecessor is missing (dropped or overtaken): hold this
        // one so delivery stays FIFO per peer — the data-first/tag-last
        // disciplines above depend on it. The cumulative ack tells the
        // sender what is still outstanding.
        rx.ahead.emplace(env.seq, PeerRx::Held{std::move(env.inner),
                                               traceOp, env.lastFrag != 0});
        sendAck(src);
        return;
    }
    deliverInner(src, env.inner, env.lastFrag != 0, traceOp);
    rx.delivered = env.seq;
    while (!rx.ahead.empty() &&
           rx.ahead.begin()->first == rx.delivered + 1) {
        deliverInner(src, rx.ahead.begin()->second.inner,
                     rx.ahead.begin()->second.lastFrag,
                     rx.ahead.begin()->second.traceOp);
        rx.delivered = rx.ahead.begin()->first;
        rx.ahead.erase(rx.ahead.begin());
    }
    sendAck(src);
}

void
Wire::onAck(net::NodeId src, uint32_t cumSeq)
{
    auto txIt = peerTx_.find(src);
    if (txIt == peerTx_.end()) {
        return;
    }
    auto &unacked = txIt->second.unacked;
    for (auto it = unacked.begin();
         it != unacked.end() && it->first <= cumSeq;) {
        node_.simulator().cancel(it->second.timer);
        it = unacked.erase(it);
    }
}

void
Wire::deliverInner(net::NodeId src, const std::vector<uint8_t> &inner,
                   bool lastFrag, uint64_t traceOp)
{
    PeerRx &rx = peerRx_[src];
    if (!lastFrag) {
        // More fragments of this message follow on the next sequence
        // numbers; in-order exactly-once delivery below us makes plain
        // concatenation a correct reassembly.
        rx.fragBuf.insert(rx.fragBuf.end(), inner.begin(), inner.end());
        return;
    }
    std::vector<uint8_t> whole;
    const std::vector<uint8_t> *bytes = &inner;
    if (!rx.fragBuf.empty()) {
        whole = std::move(rx.fragBuf);
        rx.fragBuf.clear();
        whole.insert(whole.end(), inner.begin(), inner.end());
        bytes = &whole;
    }
    auto decoded = decodeMessage(*bytes);
    if (!decoded.ok()) {
        decodeErrors_.inc();
        return;
    }
    msgsReceived_.inc();
    route(src, decoded.take(), traceOp);
}

void
Wire::sendAck(net::NodeId dst)
{
    acksSent_.inc();
    send(dst, Message(AckMsg{peerRx_[dst].delivered}),
         sim::CpuCategory::kControlTransfer);
}

void
Wire::route(net::NodeId src, Message &&msg, uint64_t traceOp)
{
    // Dispatch runs synchronously under the sender's op: the handler's
    // spans (serve_*, deposit_*) and any deferred work it schedules
    // adopt the op from this scope and join the cross-node DAG.
    obs::OpScope opScope(traceOp);
    bool isRpc = messageType(msg) == MsgType::kRpc;
    if (obs::TraceRecorder::on()) {
        obs::TraceRecorder::instance().instant(
            node_.name(), "net", "rx_msg",
            std::string(msgTypeName(messageType(msg))) + " src=" +
                std::to_string(src));
    }
    Handler &h = isRpc ? rpcHandler_ : rmemHandler_;
    if (!h) {
        REMORA_LOG(kWarn, "wire",
                   node_.name() << ": no handler for message type "
                                << static_cast<int>(messageType(msg)));
        return;
    }
    h(src, std::move(msg));
}

} // namespace remora::rmem
