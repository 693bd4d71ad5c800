#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <utility>

#include "util/json.h"

namespace remora::obs {

void
Field::appendTo(std::string &out) const
{
    if (!key_.empty()) {
        out += key_;
        out += '=';
    }
    if (kind_ == kText) {
        out += text_;
        return;
    }
    char buf[24];
    std::to_chars_result r =
        kind_ == kSigned
            ? std::to_chars(buf, buf + sizeof buf, static_cast<int64_t>(bits_))
            : std::to_chars(buf, buf + sizeof buf, bits_);
    out.append(buf, r.ptr);
}

bool TraceRecorder::on_ = false;
uint64_t TraceRecorder::currentOp_ = 0;

TraceRecorder &
TraceRecorder::instance()
{
    static TraceRecorder rec;
    return rec;
}

void
TraceRecorder::enable(sim::Simulator &simulator)
{
    sim_ = &simulator;
    on_ = true;
}

void
TraceRecorder::disable()
{
    on_ = false;
}

void
TraceRecorder::clear()
{
    events_.clear();
    dropped_ = 0;
}

void
TraceRecorder::setCapacity(size_t maxEvents)
{
    capacity_ = maxEvents;
}

SpanId
TraceRecorder::record(TracePhase phase, uint64_t op, std::string_view node,
                      std::string_view comp, std::string_view name,
                      std::initializer_list<Field> fields)
{
    if (!on_ || sim_ == nullptr) {
        return kNoSpan;
    }
    if (events_.size() >= capacity_) {
        ++dropped_;
        return kNoSpan;
    }
    TraceEvent &ev = events_.emplace_back();
    ev.phase = phase;
    ev.ts = sim_->now();
    bool async =
        phase == TracePhase::kAsyncBegin || phase == TracePhase::kAsyncEnd;
    ev.id = async ? op : 0;
    ev.op = op != 0 ? op : currentOp_;
    ev.parent = phase == TracePhase::kAsyncBegin ? currentOp_ : 0;
    ev.node = node;
    ev.comp = comp;
    ev.name = name;
    for (const Field &f : fields) {
        if (&f != fields.begin()) {
            ev.detail += ' ';
        }
        f.appendTo(ev.detail);
    }
    return events_.size() - 1;
}

void
TraceRecorder::endSpan(SpanId span)
{
    if (span == kNoSpan || span >= events_.size()) {
        return;
    }
    TraceEvent &ev = events_[span];
    if (ev.phase != TracePhase::kSpan || ev.dur >= 0 || sim_ == nullptr) {
        return; // stale handle after clear(), or double end
    }
    ev.dur = sim_->now() - ev.ts;
}

std::string
TraceRecorder::toChromeJson() const
{
    // Stable pid/tid assignment: nodes and (node, comp) pairs numbered
    // in order of first appearance.
    std::map<std::string, int> pids;
    std::map<std::pair<std::string, std::string>, int> tids;
    auto pidOf = [&pids](const std::string &node) {
        auto [it, inserted] =
            pids.emplace(node, static_cast<int>(pids.size()) + 1);
        (void)inserted;
        return it->second;
    };
    auto tidOf = [&tids](const std::string &node, const std::string &comp) {
        auto [it, inserted] = tids.emplace(
            std::make_pair(node, comp), static_cast<int>(tids.size()) + 1);
        (void)inserted;
        return it->second;
    };

    sim::Time lastTs = sim_ != nullptr ? sim_->now() : 0;

    util::JsonWriter w;
    w.beginObject().key("traceEvents").beginArray();

    // First pass assigns ids so metadata can lead; Chrome accepts
    // metadata anywhere, but leading keeps the file human-scannable.
    for (const TraceEvent &ev : events_) {
        pidOf(ev.node);
        tidOf(ev.node, ev.comp);
    }
    for (const auto &[node, pid] : pids) {
        w.beginObject()
            .kv("name", "process_name")
            .kv("ph", "M")
            .kv("pid", static_cast<int64_t>(pid))
            .key("args")
            .beginObject()
            .kv("name", node)
            .endObject()
            .endObject();
        w.beginObject()
            .kv("name", "process_sort_index")
            .kv("ph", "M")
            .kv("pid", static_cast<int64_t>(pid))
            .key("args")
            .beginObject()
            .kv("sort_index", static_cast<int64_t>(pid))
            .endObject()
            .endObject();
    }
    for (const auto &[key, tid] : tids) {
        w.beginObject()
            .kv("name", "thread_name")
            .kv("ph", "M")
            .kv("pid", static_cast<int64_t>(pids.at(key.first)))
            .kv("tid", static_cast<int64_t>(tid))
            .key("args")
            .beginObject()
            .kv("name", key.second)
            .endObject()
            .endObject();
        w.beginObject()
            .kv("name", "thread_sort_index")
            .kv("ph", "M")
            .kv("pid", static_cast<int64_t>(pids.at(key.first)))
            .kv("tid", static_cast<int64_t>(tid))
            .key("args")
            .beginObject()
            .kv("sort_index", static_cast<int64_t>(tid))
            .endObject()
            .endObject();
    }

    for (const TraceEvent &ev : events_) {
        w.beginObject()
            .kv("name", ev.name)
            .kv("cat", ev.comp)
            .kv("pid", static_cast<int64_t>(pidOf(ev.node)))
            .kv("tid", static_cast<int64_t>(tidOf(ev.node, ev.comp)))
            .kv("ts", sim::toUsec(ev.ts));
        switch (ev.phase) {
          case TracePhase::kSpan: {
            sim::Duration dur =
                ev.dur >= 0 ? ev.dur : std::max<sim::Duration>(
                                           0, lastTs - ev.ts);
            w.kv("ph", "X").kv("dur", sim::toUsec(dur));
            break;
          }
          case TracePhase::kInstant:
            w.kv("ph", "i").kv("s", "t");
            break;
          case TracePhase::kAsyncBegin:
            w.kv("ph", "b").kv("id", ev.id);
            break;
          case TracePhase::kAsyncEnd:
            w.kv("ph", "e").kv("id", ev.id);
            break;
        }
        if (!ev.detail.empty() || ev.op != 0 || ev.parent != 0) {
            w.key("args").beginObject();
            if (!ev.detail.empty()) {
                w.kv("detail", ev.detail);
            }
            if (ev.op != 0) {
                w.kv("op", ev.op);
            }
            if (ev.parent != 0) {
                w.kv("parent", ev.parent);
            }
            w.endObject();
        }
        w.endObject();
    }

    w.endArray().kv("displayTimeUnit", "ns").endObject();
    return w.str();
}

bool
TraceRecorder::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::string doc = toChromeJson();
    size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    bool ok = (written == doc.size()) && (std::fclose(f) == 0);
    if (!ok && written != doc.size()) {
        std::fclose(f);
    }
    return ok;
}

} // namespace remora::obs
