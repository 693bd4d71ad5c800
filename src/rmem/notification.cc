#include "rmem/notification.h"

#include <utility>
#include <vector>

#include "obs/trace.h"
#include "rmem/race_detector.h"
#include "util/panic.h"

namespace remora::rmem {

NotificationChannel::NotificationChannel(sim::CpuResource &cpu,
                                         const CostModel &costs)
    : cpu_(cpu), costs_(costs)
{
    wgId_ = waitGraph().channelOpen("");
    setHangLabel("channel#" + std::to_string(wgId_));
}

NotificationChannel::~NotificationChannel()
{
    // Counts survive in the wait graph: a destroyed channel with
    // undelivered notifications is still a lost wakeup.
    waitGraph().channelClose(wgId_);
    keepParkSite();
}

void
NotificationChannel::setHangLabel(std::string label)
{
    keepParkSite();
    parkSite_.assign(label).append(" blocking read");
    waitGraph().channelLabel(wgId_, std::move(label));
}

void
NotificationChannel::keepParkSite()
{
    // A parked reader's wait-graph entry points at parkSite_; hand the
    // graph its own copy before that string changes or dies.
    if (reader_) {
        waitGraph().parked(this, parkSite_, daemon_);
    }
}

sim::Task<Notification>
NotificationChannel::next()
{
    if (queue_.empty()) {
        REMORA_ASSERT(!reader_); // single blocking reader
        struct Waiter
        {
            NotificationChannel *ch;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h) noexcept
            {
                ch->reader_ = h;
                ch->waitGraph().parked(ch, ch->parkSite_.c_str(),
                                       ch->daemon_);
                ch->waitGraph().channelReader(ch->wgId_, true);
            }
            void await_resume() const noexcept {}
        };
        co_await Waiter{this};
        waitGraph().unparked(this);
        waitGraph().channelReader(wgId_, false);
    }
    REMORA_ASSERT(!queue_.empty());
    Notification n = queue_.front();
    queue_.pop_front();
    waitGraph().channelConsumed(wgId_);
    if (RaceDetector::on()) {
        // Consuming the record is the acquire side of the delivery edge.
        RaceDetector::instance().acquireToken(this, raceOwner_);
    }
    if (n.traceOp != 0 && !traceNode_.empty()) {
        // Adoption at consumption: links the reader to the op's DAG.
        obs::instant(n.traceOp, traceNode_, "notify", "notify_consume",
                     obs::kv("kind", "read"));
    }
    co_return n;
}

bool
NotificationChannel::tryNext(Notification &out)
{
    if (queue_.empty()) {
        return false;
    }
    out = queue_.front();
    queue_.pop_front();
    waitGraph().channelConsumed(wgId_);
    if (RaceDetector::on()) {
        RaceDetector::instance().acquireToken(this, raceOwner_);
    }
    if (out.traceOp != 0 && !traceNode_.empty()) {
        obs::instant(out.traceOp, traceNode_, "notify", "notify_consume",
                     obs::kv("kind", "poll"));
    }
    return true;
}

void
NotificationChannel::setSignalHandler(
    std::function<void(const Notification &)> handler)
{
    signalHandler_ = std::move(handler);
}

void
NotificationChannel::postBatch(std::span<const Notification> batch)
{
    if (batch.empty()) {
        return;
    }
    // The serving engine posts under the initiator op's OpScope; a
    // record without its own op carries that one.
    uint64_t ambientOp = obs::TraceRecorder::currentOp();
    auto stamped = [ambientOp](Notification rec) {
        if (rec.traceOp == 0) {
            rec.traceOp = ambientOp;
        }
        return rec;
    };
    delivered_ += batch.size();
    if (RaceDetector::on()) {
        // Posting releases the poster's clock into the channel: a
        // serve path posts on behalf of the initiating node (the
        // engine's ScopedActor is live here), so everything that node
        // did before the doorbell — including every store the records
        // announce — happens-before each handler/reader that consumes
        // them. One release covers the whole batch.
        auto &det = RaceDetector::instance();
        det.releaseToken(this, det.currentActor(raceOwner_));
    }
    // Everything downstream of this post — dispatch, handler, reader
    // wakeup — is a control-transfer op on *this* channel: hint it so
    // the explorer knows two posts on different channels commute.
    sim::Simulator::HintScope hintScope(simulator(),
                                        sim::DepHint::channel(wgId_));
    if (signalHandler_) {
        // Signal delivery: ONE dispatch cost for the batch, then the
        // handler upcall per record. Each op rides in its record and is
        // re-established for its upcall (adoption at notification
        // delivery).
        std::vector<Notification> recs;
        recs.reserve(batch.size());
        for (const Notification &n : batch) {
            recs.push_back(stamped(n));
        }
        cpu_.post(costs_.notifyDispatchCost,
                  sim::CpuCategory::kControlTransfer,
                  [this, recs = std::move(recs)] {
                      if (RaceDetector::on()) {
                          RaceDetector::instance().acquireToken(this,
                                                                raceOwner_);
                      }
                      for (const Notification &rec : recs) {
                          obs::OpScope opScope(rec.traceOp);
                          // Only a batch of several records says batch=N.
                          if (!traceNode_.empty() && recs.size() == 1) {
                              obs::instant(0, traceNode_, "notify",
                                           "notify_deliver",
                                           obs::kv("kind", "signal"));
                          } else if (!traceNode_.empty()) {
                              obs::instant(0, traceNode_, "notify",
                                           "notify_deliver",
                                           obs::kv("kind", "signal"),
                                           obs::kv("batch", recs.size()));
                          }
                          signalHandler_(rec);
                      }
                  });
        return;
    }
    for (const Notification &n : batch) {
        queue_.push_back(stamped(n));
        waitGraph().channelPosted(wgId_);
    }
    // One doorbell: wakeConsumers charges a single notifyDispatchCost
    // no matter how many records just became readable.
    wakeConsumers();
}

void
NotificationChannel::wakeConsumers()
{
    // Mark-readable plus wakeup is the control-transfer cost; charge it
    // once per delivery that actually unblocks someone.
    if (!reader_) {
        return; // consumer will poll; no control transfer happens
    }
    cpu_.post(costs_.notifyDispatchCost, sim::CpuCategory::kControlTransfer,
              [this] {
                  if (reader_) {
                      auto h = std::exchange(reader_, {});
                      h.resume();
                  }
              });
}

} // namespace remora::rmem
