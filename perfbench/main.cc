/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <rmem_small|dfs_dx|dfs_hy|dfs_dx_lossy>
 *             --seed <n> --seconds <s> --trace <0|1> [--corrupt-read]
 *
 * It repeats trials of the workload (fresh cluster, warm-up, measured
 * window of simulated time, drain, checks) for the given host seconds,
 * all single-threaded in this process. With --trace 0 it reports the
 * end-to-end metrics: host-clock figures are medians over the trials,
 * simulated-clock figures are deterministic and must be identical in
 * every trial. With --trace 1 it reports the per-layer metrics, from
 * the untraced trials, one traced trial (TraceRecorder on) that must
 * reproduce the untraced results exactly, and host-time probes of
 * single layers. --corrupt-read flips one bit of one read result, to
 * show the output check catches it.
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed and metrics.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/cell.h"
#include "obs/critical_path.h"
#include "obs/trace.h"
#include "perfbench.h"

using namespace remora;
using namespace remora::perfbench;

namespace {

volatile uint64_t gRefSink = 0;

/**
 * Host figures are rescaled to a nominal machine speed. Load from
 * outside this process slows the sandbox by up to 1.75x for seconds at
 * a time (thread CPU time stays equal to wall time, so it is cache and
 * core contention, not preemption), and a within-run median cannot
 * remove a slow phase that covers a whole run. A fixed reference kernel
 * (referenceSeconds) is timed before and after every trial; host times
 * are divided, and host rates multiplied, by its time over this nominal
 * time, which is what it takes on an unloaded 2.1 GHz Xeon core of the
 * sandbox. Over ten 10 s runs of dfs_dx this cut the spread of
 * host_ops_per_s from 14% to 4% of its median.
 */
constexpr double kRefNominalSec = 0.005;

constexpr sim::Duration kSampleInterval = 100 * sim::kMicrosecond;
constexpr size_t kTraceCapacity = size_t(1) << 23;
/**
 * A run pools the simulated results of this many independent clusters,
 * each with its own stream seed derived from --seed, so the seed's draw
 * of the op mix moves the pooled figures little.
 */
constexpr size_t kSubSeeds = 4;

/** Root async-op kinds the critical-path metrics report. */
const char *const kPathKinds[] = {"write", "read", "cas", "vector", "hy_call"};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool corruptRead = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--corrupt-read]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--corrupt-read") {
            a.corruptRead = true;
            continue;
        }
        if (i + 1 >= argc) {
            usage(("missing value for " + k).c_str());
        }
        const char *v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "0") != 0;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (a.workload.empty() || !(a.seconds > 0)) {
        usage("--workload and a positive --seconds are required");
    }
    return a;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile of sorted @p v. */
double
quantile(const std::vector<double> &v, double q)
{
    auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/** Integer field "key=N" of a trace detail string, or 0. */
uint64_t
detailField(const std::string &detail, const char *key)
{
    size_t p = detail.find(key);
    return p == std::string::npos
               ? 0
               : std::strtoull(detail.c_str() + p + std::strlen(key), nullptr,
                               10);
}

/** What the traced trial adds: gauges, frames and critical paths. */
struct TraceOut
{
    double pendingMean = 0;
    double tombstoneFrac = 0;
    double rxDepthMean = 0;
    double linkQueueMax = 0;
    uint64_t frames = 0;
    uint64_t frameCells = 0;
    uint64_t aal5Frames = 0;
    uint64_t aal5Bytes = 0;
    uint64_t aal5Cells = 0;
    uint64_t crcBytes = 0;
    uint64_t dropped = 0;
    /** Mean phase split per root-op kind, us. */
    std::map<std::string, obs::PhaseTotals> pathSum;
    std::map<std::string, size_t> pathCount;
};

/** Everything one trial measured. */
struct TrialOut
{
    double setupSec = 0;
    double windowHostSec = 0;
    /** Reference kernel time around the trial (mean of before, after). */
    double refSec = 0;
    Counters c0;
    Counters c1;
    std::vector<double> latUs; // window ops, sorted
    size_t windowOps = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t checkFailures = 0;
    std::string firstFailure;
    OpRecord firstFailedOp;
    uint64_t digest = 0;
    double paperErrPct = -1;
    std::optional<TraceOut> trace;

    /**
     * How much slower than nominal the machine ran around this trial:
     * host times divide by it, rates multiply by it.
     */
    double speedScale() const { return refSec / kRefNominalSec; }

    double windowSec() const { return double(c1.at - c0.at) / 1e9; }
    double ops() const { return static_cast<double>(windowOps); }
    double perOp(uint64_t Counters::*f) const
    {
        return double(c1.*f - c0.*f) / std::max(1.0, ops());
    }
    double serverUtil() const
    {
        return double(c1.serverBusy - c0.serverBusy) / double(c1.at - c0.at);
    }
    double clientUtil() const
    {
        return double(c1.clientBusy - c0.clientBusy) /
               double(c1.at - c0.at) / double(std::max<size_t>(1, c1.clients));
    }

    /**
     * Every simulated-clock result of the trial, for exact comparison
     * across trials and between the traced and untraced runs.
     */
    std::vector<double>
    simSignature() const
    {
        std::vector<double> s = {ops(), windowSec(), serverUtil(),
                                 clientUtil(), double(attempted),
                                 double(failed), double(digest >> 32),
                                 double(digest & 0xffffffffu), paperErrPct};
        s.insert(s.end(), latUs.begin(), latUs.end());
        for (uint64_t Counters::*f :
             {&Counters::events, &Counters::decisions, &Counters::cells,
              &Counters::msgs, &Counters::retransmits, &Counters::hyCalls,
              &Counters::faultDrops, &Counters::dxMisses}) {
            s.push_back(double(c1.*f - c0.*f));
        }
        return s;
    }
};

/**
 * Fixed host work that uses none of the repository's code: a small
 * event loop over a binary heap, a hash map and std::function, like
 * the simulator core at the parent commit. Timed beside every trial, it
 * tracks how fast the machine runs at that moment.
 */
double
referenceSeconds()
{
    using Entry = std::pair<uint64_t, uint64_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    std::unordered_map<uint64_t, std::function<void()>> callbacks;
    uint64_t x = 88172645463325252ull;
    uint64_t sink = 0;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    double t0 = hostSeconds();
    uint64_t now = 0, id = 0;
    for (; id < 512; ++id) {
        heap.push({next() % 100000, id});
        callbacks.emplace(id, [&sink, id] { sink += id; });
    }
    for (int i = 0; i < 40000; ++i) {
        auto [when, top] = heap.top();
        heap.pop();
        now = when;
        auto it = callbacks.find(top);
        it->second();
        callbacks.erase(it);
        uint64_t fresh = id++;
        heap.push({now + 1 + next() % 100000, fresh});
        callbacks.emplace(fresh, [&sink, fresh] { sink ^= fresh; });
    }
    double dt = hostSeconds() - t0;
    gRefSink = gRefSink + sink;
    return dt;
}

TrialOut
runTrial(const WorkloadSpec &w, const Schedule &sched, uint64_t seed,
         bool corruptRead, bool traced)
{
    TrialOut out;
    auto &rec = obs::TraceRecorder::instance();
    double refBefore = referenceSeconds();
    double h0 = hostSeconds();
    std::unique_ptr<Trial> trial = w.make(seed, corruptRead, sched);
    sim::Simulator &sim = *trial->view().sim;
    if (traced) {
        rec.clear();
        rec.setCapacity(kTraceCapacity);
        rec.enable(sim);
    }
    trial->build();
    trial->runTo(sched.warmupEnd, nullptr);
    out.c0 = trial->snapshot(std::max(sched.warmupEnd, sim.now()));
    double h1 = hostSeconds();

    std::optional<Sampler> sampler;
    if (traced) {
        sampler.emplace(out.c0.at, kSampleInterval,
                        [&trial] { return trial->gauges(); });
    }
    trial->runTo(sched.stopAt, sampler ? &*sampler : nullptr);
    double h2 = hostSeconds();
    out.c1 = trial->snapshot(std::max(sched.stopAt, sim.now()));
    trial->drain();
    trial->finish();

    out.setupSec = h1 - h0;
    out.windowHostSec = h2 - h1;
    out.refSec = 0.5 * (refBefore + referenceSeconds());
    for (sim::Duration d : trial->log.windowLatencies(out.c0.at, out.c1.at)) {
        out.latUs.push_back(sim::toUsec(d));
    }
    std::sort(out.latUs.begin(), out.latUs.end());
    out.windowOps = out.latUs.size();
    out.attempted = trial->log.attempted();
    out.failed = trial->log.failed();
    out.checkFailures = trial->log.checkFailures();
    out.firstFailure = trial->log.firstFailure();
    out.firstFailedOp = trial->log.firstFailedOp();
    out.digest = trial->log.digest();
    out.paperErrPct = trial->paperErrPct(out.c0.at, out.c1.at);

    if (traced) {
        rec.disable();
        TraceOut t;
        t.pendingMean = sampler->pendingMean();
        t.tombstoneFrac = sampler->tombstoneFrac();
        t.rxDepthMean = sampler->rxDepthMean();
        t.linkQueueMax = sampler->linkQueueMax();
        t.dropped = rec.dropped();
        for (const obs::TraceEvent &e : rec.events()) {
            if (e.phase != obs::TracePhase::kSpan || e.name != "tx_frame" ||
                e.ts < out.c0.at || e.ts >= out.c1.at) {
                continue;
            }
            uint64_t bytes = detailField(e.detail, "bytes=");
            uint64_t cells = detailField(e.detail, "cells=");
            ++t.frames;
            t.frameCells += cells;
            if (bytes > net::Cell::kPayloadBytes) {
                // AAL5: CRC-32 over the whole CS-PDU at segmentation and
                // again at reassembly.
                ++t.aal5Frames;
                t.aal5Bytes += bytes;
                t.aal5Cells += cells;
                t.crcBytes += 2 * cells * net::Cell::kPayloadBytes;
            }
            if (e.detail.rfind("seq_data", 0) == 0) {
                t.crcBytes += 2 * bytes; // envelope CRC, sender + receiver
            }
        }
        obs::CriticalPathAnalyzer analyzer;
        for (const auto &p : analyzer.analyze(rec.events())) {
            if (p.parent != 0 || p.end < out.c0.at || p.end >= out.c1.at) {
                continue;
            }
            t.pathSum[p.name] += p.totals;
            ++t.pathCount[p.name];
        }
        rec.clear();
        out.trace = std::move(t);
    }
    return out;
}

/** One printed metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms) {
        std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<Metric> &ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** Accumulates pass/fail of the run's checks, printing each failure. */
struct Verdict
{
    bool ok = true;

    void
    require(bool cond, const std::string &what)
    {
        if (!cond) {
            ok = false;
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }
};

/** Checks every trial must pass on its own. */
void
checkTrial(Verdict &v, const WorkloadSpec &w, const TrialOut &t)
{
    v.require(t.checkFailures == 0,
              std::to_string(t.checkFailures) +
                  " output check(s) failed, first: " + t.firstFailure);
    v.require(t.serverUtil() <= 1.0 && t.serverUtil() > 0,
              "server_cpu_util must lie in (0, 1]");
    v.require(t.clientUtil() <= 1.0, "client CPU utilisation above 1");
    v.require(t.windowOps > 0, "no op completed inside the window");
    if (w.lossy) {
        v.require(t.c1.faultDrops > t.c0.faultDrops,
                  "lossy workload dropped no cell in the window");
        v.require(t.c1.retransmits > t.c0.retransmits,
                  "lossy workload retransmitted nothing in the window");
    }
}

/** Simulated results pooled over the first trial of every sub-seed. */
struct Pooled
{
    double ops = 0;
    double windowSec = 0;
    double serverBusySec = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t digest = 0;
    std::vector<double> latUs; // sorted
    std::vector<double> paperErrPct;

    explicit Pooled(const std::vector<TrialOut> &trials)
    {
        for (size_t k = 0; k < kSubSeeds; ++k) {
            const TrialOut &t = trials[k];
            ops += t.ops();
            windowSec += t.windowSec();
            serverBusySec += t.serverUtil() * t.windowSec();
            attempted += t.attempted;
            failed += t.failed;
            digest = util::mix64(digest ^ t.digest);
            latUs.insert(latUs.end(), t.latUs.begin(), t.latUs.end());
            paperErrPct.push_back(t.paperErrPct);
        }
        std::sort(latUs.begin(), latUs.end());
    }
};

std::vector<Metric>
endToEnd(const std::vector<TrialOut> &trials)
{
    std::vector<double> hostOps, setup;
    for (const TrialOut &t : trials) {
        hostOps.push_back(t.ops() / t.windowHostSec * t.speedScale());
        setup.push_back(t.setupSec / t.speedScale());
    }
    Pooled p(trials);
    return {
        {"host_ops_per_s", median(hostOps), "ops/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_ops_per_s", p.ops / p.windowSec, "ops/sim_s"},
        {"sim_lat_p50_us", quantile(p.latUs, 0.50), "sim_us"},
        {"sim_lat_p99_us", quantile(p.latUs, 0.99), "sim_us"},
        {"server_cpu_util", p.serverBusySec / p.windowSec, "frac"},
    };
}

std::vector<Metric>
perLayer(const WorkloadSpec &w, uint64_t seed,
         const std::vector<TrialOut> &untraced, const TrialOut &traced)
{
    const TrialOut &u = untraced.front();
    const TraceOut &tr = *traced.trace;
    std::vector<double> nsPerEvent, windowHost;
    for (const TrialOut &t : untraced) {
        nsPerEvent.push_back(t.windowHostSec * 1e9 /
                             double(t.c1.events - t.c0.events));
    }
    // The traced trial runs stream seed 0: compare it with the repeats
    // of that seed, each at nominal machine speed.
    for (size_t i = 0; i < untraced.size(); i += kSubSeeds) {
        windowHost.push_back(untraced[i].windowHostSec /
                             untraced[i].speedScale());
    }
    double ops = std::max(1.0, u.ops());
    double eventsPerOp = u.perOp(&Counters::events);
    double hostNsPerEvent = median(nsPerEvent);
    double msgs = double(u.c1.msgs - u.c0.msgs);
    double msgBytes = msgs > 0 ? double(u.c1.msgBytes - u.c0.msgBytes) / msgs
                               : 0;
    double aal5FrameBytes =
        tr.aal5Frames ? double(tr.aal5Bytes) / double(tr.aal5Frames) : 0;
    double crcBytesPerOp = double(tr.crcBytes) / ops;
    double aal5CellsPerOp = double(tr.aal5Cells) / ops;
    double window = double(u.c1.at - u.c0.at);
    double cellNs = static_cast<double>(sim::usec(1)) * 53 * 8 / 140.0;

    double coreNs = probes::simCoreNsPerEvent(tr.pendingMean, tr.tombstoneFrac);
    double crcNs = probes::crcNsPerByte(
        aal5FrameBytes > 0 ? static_cast<size_t>(aal5FrameBytes) : 48);
    double aal5Ns = probes::aal5NsPerCell(
        aal5FrameBytes > 0 ? static_cast<size_t>(aal5FrameBytes) : 49);
    double codecNs = probes::codecNsPerMsg(static_cast<size_t>(msgBytes));
    double marshalNs = probes::marshalNsPerCall(static_cast<size_t>(msgBytes));
    double genNs = probes::genNsPerOp(seed);

    std::vector<Metric> m = {
        {"sim.events_per_op", eventsPerOp, "events/op"},
        {"sim.host_ns_per_event", hostNsPerEvent, "ns/event"},
        {"sim.core_ns_per_event", coreNs, "ns/event"},
        {"sim.pending_events_mean", tr.pendingMean, "events"},
        {"sim.tombstone_frac", tr.tombstoneFrac, "frac"},
        {"sim.ties_per_op", u.perOp(&Counters::decisions), "ties/op"},
        {"util.crc_ns_per_byte", crcNs, "ns/B"},
        {"util.crc_bytes_per_op", crcBytesPerOp, "B/op"},
        {"net.cells_per_op", u.perOp(&Counters::cells), "cells/op"},
        {"net.cells_per_frame",
         tr.frames ? double(tr.frameCells) / double(tr.frames) : 0,
         "cells/frame"},
        {"net.aal5_ns_per_cell", aal5Ns, "ns/cell"},
        {"net.server_tx_link_busy_frac",
         double(u.c1.serverTxCells - u.c0.serverTxCells) * cellNs / window,
         "frac"},
        {"net.server_rx_link_busy_frac",
         double(u.c1.serverRxCells - u.c0.serverRxCells) * cellNs / window,
         "frac"},
        {"net.link_queue_max", tr.linkQueueMax, "cells"},
        {"net.server_nic_rx_depth_mean", tr.rxDepthMean, "cells"},
        {"net.fault_drops_per_op", u.perOp(&Counters::faultDrops), "cells/op"},
    };
    double rawBusy = 0;
    for (size_t k = 0; k < kCpuCats; ++k) {
        rawBusy += double(u.c1.serverCat[k] - u.c0.serverCat[k]);
    }
    for (size_t k = 0; k < kCpuCats; ++k) {
        // Category shares of the raw busy time, scaled to the in-window
        // utilisation (the edge overhang is not split by category).
        double share = rawBusy > 0
                           ? double(u.c1.serverCat[k] - u.c0.serverCat[k]) /
                                 rawBusy
                           : 0;
        m.push_back({std::string("mem.server_cpu.") +
                         sim::cpuCategoryName(static_cast<sim::CpuCategory>(k)),
                     share * u.serverUtil(), "frac"});
    }
    double vectors = double(u.c1.vectors - u.c0.vectors);
    double dxAttempts = double(u.c1.dxAttempts - u.c0.dxAttempts);
    double hyCallsPerOp = u.perOp(&Counters::hyCalls);
    m.insert(m.end(), {
        {"mem.client_cpu_util_mean", u.clientUtil(), "frac"},
        {"rmem.msgs_per_op", msgs / ops, "msgs/op"},
        {"rmem.codec_ns_per_msg", codecNs, "ns/msg"},
        {"rmem.vector_sub_ops_per_batch",
         vectors > 0 ? double(u.c1.vectorSubOps - u.c0.vectorSubOps) / vectors
                     : 0,
         "subops/batch"},
        {"rmem.notifications_per_op", u.perOp(&Counters::notifications),
         "notes/op"},
        {"rmem.timeouts_per_op", u.perOp(&Counters::timeouts), "1/op"},
        {"rmem.wire.retransmits_per_op", u.perOp(&Counters::retransmits),
         "1/op"},
        {"rmem.wire.acks_per_op", u.perOp(&Counters::acks), "1/op"},
        {"rmem.wire.fragments_per_op", u.perOp(&Counters::fragments), "1/op"},
        {"rmem.wire.send_failures",
         double(u.c1.sendFailures - u.c0.sendFailures), "count"},
        {"rpc.hy_calls_per_op", hyCallsPerOp, "calls/op"},
        {"rpc.marshal_ns_per_call", marshalNs, "ns/call"},
        {"dfs.dx_miss_frac",
         dxAttempts > 0 ? double(u.c1.dxMisses - u.c0.dxMisses) / dxAttempts
                        : 0,
         "frac"},
        {"dfs.window_shrinks_per_op", u.perOp(&Counters::windowShrinks),
         "1/op"},
        {"trace.gen_ns_per_op", genNs, "ns/op"},
    });
    for (const char *kind : kPathKinds) {
        auto it = tr.pathSum.find(kind);
        size_t n = it == tr.pathSum.end() ? 0 : tr.pathCount.at(kind);
        auto mean = [&](sim::Duration obs::PhaseTotals::*f) {
            return n ? sim::toUsec(it->second.*f) / double(n) : 0.0;
        };
        std::string base = std::string("critpath.") + kind + ".";
        m.insert(m.end(),
                 {{base + "software_us", mean(&obs::PhaseTotals::software),
                   "sim_us"},
                  {base + "wire_us", mean(&obs::PhaseTotals::wire), "sim_us"},
                  {base + "controller_us",
                   mean(&obs::PhaseTotals::controller), "sim_us"},
                  {base + "queueing_us", mean(&obs::PhaseTotals::queueing),
                   "sim_us"}});
    }

    // Host-time shares: each probe times its count per op, over the
    // whole program's host time per op. The AAL5 probe includes its
    // CRC passes, which util already counts.
    double hostNsPerOp = hostNsPerEvent * eventsPerOp;
    double shares[] = {
        coreNs * eventsPerOp,
        crcNs * crcBytesPerOp,
        std::max(0.0, aal5Ns - 2 * net::Cell::kPayloadBytes * crcNs) *
            aal5CellsPerOp,
        codecNs * msgs / ops,
        marshalNs * hyCallsPerOp,
        w.usesWorkloadGen ? genNs : 0.0,
    };
    const char *shareNames[] = {"sim", "util", "net", "rmem", "rpc", "trace"};
    double rest = 1.0;
    for (size_t i = 0; i < std::size(shares); ++i) {
        double share = shares[i] / hostNsPerOp;
        rest -= share;
        m.push_back({std::string("host_share.") + shareNames[i], share,
                     "frac"});
    }
    m.push_back({"host_share.model", rest, "frac"});
    m.push_back({"obs.trace_overhead_frac",
                 traced.windowHostSec / traced.speedScale() /
                         median(windowHost) -
                     1.0,
                 "frac"});
    m.push_back({"obs.trace_dropped", double(tr.dropped), "events"});
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    WorkloadSpec w = args.workload == "rmem_small"
                         ? rmemSmallWorkload()
                         : dfsWorkload(args.workload);
    std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                w.name.c_str(), args.seed, args.seconds, int(args.trace));

    Verdict v;
    const Schedule &sched = args.trace ? w.tracedSchedule : w.schedule;
    auto subSeed = [&args](size_t k) {
        return util::mix64(args.seed * kSubSeeds + k);
    };
    double start = hostSeconds();
    // The traced mode spends part of its time on the traced trial and
    // the probes, so it runs fewer untraced trials.
    double untracedBudget = args.trace ? 0.4 * args.seconds : args.seconds;
    std::vector<TrialOut> trials;
    while (trials.size() < kSubSeeds ||
           hostSeconds() - start < untracedBudget) {
        size_t k = trials.size() % kSubSeeds;
        trials.push_back(
            runTrial(w, sched, subSeed(k), args.corruptRead, false));
        checkTrial(v, w, trials.back());
        v.require(trials.back().simSignature() == trials[k].simSignature(),
                  "simulated results differ between repeats of a seed");
        if (trials.size() > kSubSeeds) {
            // Only the first trial of each stream seed feeds the pooled
            // figures; keeping every repeat's latencies would grow the
            // peak RSS with the run length.
            std::vector<double>().swap(trials.back().latUs);
        }
    }
    uint64_t attempted = 0, failed = 0;
    for (const TrialOut &t : trials) {
        attempted += t.attempted;
        failed += t.failed;
    }
    Pooled pooled(trials);
    std::printf("trials=%zu (%zu stream seeds) window_ops=%.0f "
                "p99_samples_beyond=%zu digest=%016" PRIx64 "\n",
                trials.size(), kSubSeeds, pooled.ops,
                pooled.latUs.size() - static_cast<size_t>(
                                          std::ceil(0.99 * pooled.ops)),
                pooled.digest);
    std::printf("op_fail_frac=%.17g (%" PRIu64 " of %" PRIu64 " ops)\n",
                double(pooled.failed) /
                    double(std::max<uint64_t>(1, pooled.attempted)),
                pooled.failed, pooled.attempted);
    for (size_t k = 0; k < kSubSeeds; ++k) {
        if (trials[k].failed > 0) {
            const OpRecord &f = trials[k].firstFailedOp;
            std::printf("first failed op of stream %zu: client=%u index=%" PRIu64
                        " kind=%u status=%d start_us=%.3f end_us=%.3f\n",
                        k, f.client, f.index, f.kind, f.status,
                        sim::toUsec(f.start), sim::toUsec(f.end));
        }
    }
    if (pooled.paperErrPct[0] >= 0) {
        std::printf("paper_err_pct=%.17g (Table 2 read, write, CAS and "
                    "notification rows, stream 0)\n",
                    pooled.paperErrPct[0]);
    }
    std::printf("host ops/s per trial (unscaled):");
    for (const TrialOut &t : trials) {
        std::printf(" %.0f", t.ops() / t.windowHostSec);
    }
    std::printf("\nreference kernel ms per trial:");
    for (const TrialOut &t : trials) {
        std::printf(" %.3f", t.refSec * 1e3);
    }
    std::printf("\n");

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = endToEnd(trials);
        std::printf("end-to-end metrics (host: median of %zu trials; "
                    "sim: pooled over the %zu stream seeds):\n",
                    trials.size(), kSubSeeds);
    } else {
        TrialOut traced = runTrial(w, sched, subSeed(0), args.corruptRead, true);
        checkTrial(v, w, traced);
        v.require(traced.simSignature() == trials[0].simSignature(),
                  "traced run changed the simulated results or digest");
        v.require(traced.trace->dropped == 0,
                  "TraceRecorder dropped events; raise its capacity");
        attempted += traced.attempted;
        failed += traced.failed;
        metrics = perLayer(w, subSeed(0), trials, traced);
        std::printf("per-layer metrics (peak_rss_mb=%.1f with the trace):\n",
                    peakRssMb());
    }
    printMetrics(metrics);
    printJson(v.ok, attempted, failed, metrics);
    return 0;
}
