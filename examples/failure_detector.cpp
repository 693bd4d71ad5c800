/**
 * @file
 * Failure detection without RPC machinery (§3.7).
 *
 * "A service that required fault tolerance could implement a periodic
 * remote read request of a known (or monotonically increasing) value.
 * Failure to read the value within a timeout period can be used to
 * raise an exception."
 *
 * Two watchers monitor a worker node's heartbeat counter with pure
 * remote reads. Half a simulated second in, the worker node "crashes"
 * (its kernel stops answering); both watchers notice within a few
 * probe periods — no RPC runtime, no acknowledgements, just reads that
 * stop returning.
 */
#include <cstdio>

#include "cluster/cluster.h"
#include "rmem/sync.h"
#include "util/strings.h"

using namespace remora;

int
main()
{
    std::printf("remora failure-detector example: heartbeats by remote "
                "read (no control transfer)\n\n");

    cluster::Cluster c({.names = {"worker", "watcherA", "watcherB"},
                        .switched = true});
    sim::Simulator &sim = c.sim;

    mem::Process &workerProc = c.nodes[0]->spawnProcess("service");
    rmem::HeartbeatPublisher publisher(*c.engines[0], workerProc);

    auto report = [&sim](const char *who) {
        return [who, &sim](net::NodeId node) {
            std::printf("[%-9s] %s: node %u declared FAILED\n",
                        util::formatDuration(sim.now()).c_str(), who, node);
        };
    };
    mem::Process &procA = c.nodes[1]->spawnProcess("monitor");
    mem::Process &procB = c.nodes[2]->spawnProcess("monitor");
    rmem::HeartbeatMonitor monA(*c.engines[1], procA, publisher.handle(),
                                report("watcherA"));
    rmem::HeartbeatMonitor monB(*c.engines[2], procB, publisher.handle(),
                                report("watcherB"));

    publisher.start();
    monA.start();
    monB.start();

    // Let the cluster run healthy for half a second...
    sim.run(sim::msec(500));
    std::printf("[%-9s] %u heartbeats published, %llu + %llu probes "
                "answered, nobody suspected\n",
                util::formatDuration(sim.now()).c_str(), publisher.beats(),
                static_cast<unsigned long long>(monA.probes()),
                static_cast<unsigned long long>(monB.probes()));

    // ... then the worker node crashes outright: its kernel goes dark.
    publisher.stop();
    c.engines[0]->wire().setRmemHandler([](net::NodeId, rmem::Message &&) {});
    std::printf("[%-9s] worker node crashes (kernel silent)\n",
                util::formatDuration(sim.now()).c_str());

    sim.run(sim.now() + sim::msec(500));
    REMORA_ASSERT(monA.peerFailed() && monB.peerFailed());
    monA.stop();
    monB.stop();
    sim.run();

    std::printf("\nboth watchers converged on the failure using only "
                "timed remote reads (\"the fundamental mechanism needed "
                "for failure detection is timeouts\", §3.7)\n");
    return 0;
}
