/**
 * @file
 * Cluster-wide, simulated-time trace recording.
 *
 * The paper's results are latency *decompositions*: where a
 * meta-instruction spends its microseconds between issue, the wire,
 * the serving kernel, and the notification path. TraceRecorder captures
 * exactly that — every instrumented component posts spans (work with a
 * duration), instants (points in time), and async ops (one logical
 * operation crossing nodes, correlated by id) against the simulated
 * clock, scoped by node and component.
 *
 * Instrumented code records through five calls: beginSpan(), endSpan(),
 * instant(), asyncBegin() and asyncEnd(). Each tests one static bool
 * before it builds anything, so a run with recording off formats no
 * detail, and takes its detail as typed fields (kv("dst", dst), or bare
 * text) that the recorder alone formats. When enabled, a run can
 * be exported as Chrome trace_event JSON (open in chrome://tracing or
 * https://ui.perfetto.dev): nodes render as processes, components as
 * threads, and async ops as arrows across them.
 *
 * One recorder per process, as there is one simulation per process.
 */
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace remora::obs {

/** What kind of trace record an event is. */
enum class TracePhase : uint8_t
{
    /** A span: work with a start time and duration. */
    kSpan,
    /** A point event. */
    kInstant,
    /** Start of an id-correlated operation (may end on another node). */
    kAsyncBegin,
    /** End of an id-correlated operation. */
    kAsyncEnd,
};

/** One recorded event. */
struct TraceEvent
{
    TracePhase phase;
    /** Simulated start time, ns. */
    sim::Time ts = 0;
    /** Span duration, ns (kSpan only; -1 while the span is open). */
    sim::Duration dur = -1;
    /** Correlation id (async phases only). */
    uint64_t id = 0;
    /**
     * The async op this event belongs to (0 = unattributed). For async
     * phases this equals @ref id; spans and instants take it from the
     * recording call, or from the ambient OpScope when that passes 0.
     * This is what stitches per-node events into one cross-node DAG.
     */
    uint64_t op = 0;
    /**
     * Enclosing async op at asyncBegin time (0 = root). Captured from
     * the ambient scope so nested ops (an RPC built from rmem writes,
     * a DFS op built from RPCs) form a tree.
     */
    uint64_t parent = 0;
    /** Node scope (Chrome "process"), e.g. "client". */
    std::string node;
    /** Component scope (Chrome "thread"), e.g. "rmem". */
    std::string comp;
    /** Event name, e.g. "serve_read". */
    std::string name;
    /** The event's detail fields, space-joined; rendered as its args. */
    std::string detail;
};

/** Handle returned by beginSpan(); pass to endSpan(). */
using SpanId = size_t;

/** Sentinel handle returned when recording is disabled. */
inline constexpr SpanId kNoSpan = static_cast<SpanId>(-1);

/**
 * Instant emitted by the host interface when the last cell of an
 * op-stamped frame lands in the RX FIFO. The critical-path analyzer
 * keys on this name to split a cross-node gap into wire time (up to
 * the arrival) and controller/queueing time (after it).
 */
inline constexpr std::string_view kCellArrivalEvent = "cell_rx";

/**
 * One piece of an event's detail: `key=value` (see kv()) or bare text,
 * such as a message-type name. It holds views, so it lives only for
 * the recording call that formats it.
 */
class Field
{
  public:
    /** Bare text. */
    explicit Field(std::string_view text) : text_(text) {}

    /** `key=text`. */
    Field(std::string_view key, std::string_view text)
        : key_(key), text_(text)
    {}

    /** `key=number`, in decimal. */
    template <std::integral V>
    Field(std::string_view key, V value)
        : key_(key), kind_(std::is_signed_v<V> ? kSigned : kUnsigned),
          bits_(static_cast<uint64_t>(value))
    {}

    /** Append the field's text to @p out. */
    void appendTo(std::string &out) const;

  private:
    enum Kind : uint8_t
    {
        kText,
        kSigned,
        kUnsigned,
    };

    std::string_view key_;
    std::string_view text_;
    Kind kind_ = kText;
    uint64_t bits_ = 0;
};

/** The detail field `key=value`; @p value is an integer or text. */
template <typename V>
Field
kv(std::string_view key, const V &value)
{
    return Field(key, value);
}

/**
 * The process-wide trace recorder. Instrumented code records through
 * the obs:: entry points below (beginSpan, endSpan, instant,
 * asyncBegin, asyncEnd), which test on() before they build anything.
 */
class TraceRecorder
{
  public:
    /** The process-wide instance. */
    static TraceRecorder &instance();

    /** Whether recording is on: one static bool. */
    static bool on() { return on_; }

    /**
     * Start recording against @p simulator's clock. Events already
     * recorded are kept (enable/disable brackets a region of interest).
     */
    void enable(sim::Simulator &simulator);

    /** Stop recording. Open spans stay open until export. */
    void disable();

    /** Drop all recorded events. Invalidates outstanding SpanIds. */
    void clear();

    /**
     * Bound on stored events; once reached, further records are counted
     * in dropped() and discarded (newest-lose keeps SpanIds stable).
     */
    void setCapacity(size_t maxEvents);

    /** Events discarded because the capacity was reached. */
    uint64_t dropped() const { return dropped_; }

    /** A fresh id for an async operation. */
    uint64_t newAsyncId() { return nextAsyncId_++; }

    /**
     * The async op ambient in the current synchronous call chain
     * (0 = none). Established by OpScope; spans and instants recorded
     * with op 0 while a scope is live are stamped with it.
     *
     * Ambient context does NOT survive coroutine suspension — a
     * coroutine resumed from the event queue runs outside the scope it
     * was created under. Coroutine code must capture the op id and
     * pass it to beginSpan()/instant() instead.
     */
    static uint64_t currentOp() { return currentOp_; }

    /**
     * Append one event of @p phase at the current sim time, its detail
     * @p fields joined by single spaces. @p op is the event's async op
     * (its id, for the async phases); 0 adopts currentOp(). An
     * asyncBegin also records currentOp() as its parent. The obs::
     * entry points call this once on() holds.
     *
     * @return The event's index (a span's handle), or kNoSpan when
     *     recording is off or the capacity is reached.
     */
    SpanId record(TracePhase phase, uint64_t op, std::string_view node,
                  std::string_view comp, std::string_view name,
                  std::initializer_list<Field> fields);

    /** Close a span; kNoSpan and stale handles are ignored. */
    void endSpan(SpanId span);

    /** All recorded events, in record order. */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Number of recorded events. */
    size_t eventCount() const { return events_.size(); }

    /**
     * Render the recording as a Chrome trace_event JSON document.
     * Open spans are closed at the current (or last-known) sim time.
     */
    std::string toChromeJson() const;

    /**
     * Write toChromeJson() to @p path.
     *
     * @return True on success.
     */
    bool writeChromeJson(const std::string &path) const;

  private:
    TraceRecorder() = default;

    static bool on_;
    static uint64_t currentOp_;
    sim::Simulator *sim_ = nullptr;
    std::vector<TraceEvent> events_;
    size_t capacity_ = 1u << 20;
    uint64_t dropped_ = 0;
    uint64_t nextAsyncId_ = 1;

    friend class OpScope;
};

/**
 * Open a span on (node, comp) starting now, attributed to async op
 * @p op (0 = the ambient OpScope's op; coroutine code passes its op).
 *
 * @return Handle for endSpan(), or kNoSpan when recording is off.
 */
template <typename... Fields>
inline SpanId
beginSpan(uint64_t op, std::string_view node, std::string_view comp,
          std::string_view name, const Fields &...fields)
{
    if (!TraceRecorder::on()) {
        return kNoSpan;
    }
    return TraceRecorder::instance().record(TracePhase::kSpan, op, node,
                                            comp, name, {Field(fields)...});
}

/** Close a span; kNoSpan is ignored. */
inline void
endSpan(SpanId span)
{
    if (span != kNoSpan) {
        TraceRecorder::instance().endSpan(span);
    }
}

/** Record a point event, attributed like beginSpan(). */
template <typename... Fields>
inline void
instant(uint64_t op, std::string_view node, std::string_view comp,
        std::string_view name, const Fields &...fields)
{
    if (TraceRecorder::on()) {
        TraceRecorder::instance().record(TracePhase::kInstant, op, node, comp,
                                         name, {Field(fields)...});
    }
}

/**
 * Open an async op, one logical operation that may end on another
 * node; the ambient op becomes its parent.
 *
 * @return The op's fresh id, or 0 when recording is off.
 */
template <typename... Fields>
inline uint64_t
asyncBegin(std::string_view node, std::string_view comp, std::string_view name,
           const Fields &...fields)
{
    if (!TraceRecorder::on()) {
        return 0;
    }
    TraceRecorder &rec = TraceRecorder::instance();
    uint64_t id = rec.newAsyncId();
    rec.record(TracePhase::kAsyncBegin, id, node, comp, name,
               {Field(fields)...});
    return id;
}

/** Close async op @p id (0 is ignored). Name and comp match the begin. */
template <typename... Fields>
inline void
asyncEnd(uint64_t id, std::string_view node, std::string_view comp,
         std::string_view name, const Fields &...fields)
{
    if (id != 0 && TraceRecorder::on()) {
        TraceRecorder::instance().record(TracePhase::kAsyncEnd, id, node, comp,
                                         name, {Field(fields)...});
    }
}

/**
 * The trace node of a per-node component named "<node>.<part>":
 * "nodeA.nic" and "client.cpu" belong to nodes "nodeA" and "client".
 */
inline std::string_view
nodeOf(std::string_view component)
{
    return component.substr(0, component.find('.'));
}

/**
 * RAII ambient op context: while alive, spans and instants recorded in
 * the same synchronous call chain are stamped with @p op, and nested
 * asyncBegin()s record it as their parent. Scopes nest (saved/restored
 * like a stack variable).
 *
 * Only valid across straight-line code — never hold one across a
 * co_await; the resumption runs from the event queue with whatever
 * scope happens to be live there. Deferred callbacks (cpu.post
 * lambdas) should capture currentOp() at creation and re-establish an
 * OpScope inside the lambda body.
 */
class OpScope
{
  public:
    explicit OpScope(uint64_t op) : saved_(TraceRecorder::currentOp_)
    {
        TraceRecorder::currentOp_ = op;
    }

    OpScope(const OpScope &) = delete;
    OpScope &operator=(const OpScope &) = delete;

    ~OpScope() { TraceRecorder::currentOp_ = saved_; }

  private:
    uint64_t saved_;
};

} // namespace remora::obs
