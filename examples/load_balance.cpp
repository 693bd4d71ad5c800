/**
 * @file
 * Synchronization-free load balancing with remote writes (§3.4).
 *
 * "Consider the case of load balancing in a workstation cluster. Each
 * workstation could update a shared variable with its current load
 * using remote writes. Other workstations would read this value and
 * take appropriate load balancing actions. In this situation, strict
 * synchronization of the data is not required because it is being used
 * as a hint."
 *
 * Each of N nodes exports a "load board" — one word per peer — and
 * periodically remote-writes its own load into everyone's board (pure
 * data transfer; no peer is interrupted). When a node wants to shed
 * work it just reads *local* memory to pick the least-loaded peer.
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "sim/random.h"
#include "sim/task.h"
#include "util/bytes.h"
#include "util/strings.h"

using namespace remora;

namespace {

constexpr size_t kNodes = 5;
constexpr sim::Duration kGossipPeriod = sim::msec(10);
constexpr int kRounds = 20;

struct Member
{
    mem::Node *node = nullptr;
    rmem::RmemEngine *engine = nullptr;
    mem::Process *proc = nullptr;
    mem::Vaddr board = 0;                       // kNodes load words
    std::vector<rmem::ImportedSegment> peers;   // peer boards
    uint32_t load = 0;
    uint64_t migrations = 0;
};

/** Periodically publish our load into every peer's board. */
sim::Task<void>
gossipLoop(Member *self, size_t selfIdx, sim::Random *rng)
{
    auto &sim = self->engine->node().simulator();
    for (int round = 0; round < kRounds; ++round) {
        // The "load" wanders randomly; a real system would sample the
        // run queue here.
        self->load = (self->load + rng->uniformInt(30)) % 100;

        // Update our own slot locally, then hint every peer. No
        // acknowledgements, no locks: stale values are acceptable.
        REMORA_ASSERT(self->proc->space()
                          .writeWord(self->board + 4 * selfIdx, self->load)
                          .ok());
        util::ByteWriter w(4);
        w.putU32(self->load);
        for (auto &peer : self->peers) {
            auto ws = co_await self->engine->write(
                peer, static_cast<uint32_t>(4 * selfIdx),
                std::vector<uint8_t>(w.bytes().begin(), w.bytes().end()));
            REMORA_ASSERT(ws.ok());
        }

        // Shed work when overloaded: consult only LOCAL memory.
        if (self->load > 70) {
            uint32_t best = 0xffffffff;
            size_t bestIdx = selfIdx;
            for (size_t i = 0; i < kNodes; ++i) {
                if (i == selfIdx) {
                    continue;
                }
                auto word =
                    self->proc->space().readWord(self->board + 4 * i);
                REMORA_ASSERT(word.ok());
                if (word.value() < best) {
                    best = word.value();
                    bestIdx = i;
                }
            }
            if (bestIdx != selfIdx && best < self->load) {
                ++self->migrations;
                self->load -= 20; // pretend we shipped a job away
            }
        }
        co_await sim::delay(sim, kGossipPeriod);
    }
}

} // namespace

int
main()
{
    std::printf("remora load-balancing example: %zu nodes gossiping load "
                "hints with pure remote writes\n\n",
                kNodes);

    cluster::ClusterSpec spec;
    spec.switched = true;
    for (size_t i = 1; i <= kNodes; ++i) {
        spec.names.push_back("ws" + std::to_string(i));
    }
    cluster::Cluster c(spec);
    std::vector<Member> members(kNodes);

    // Every node exports its load board. By construction these land in
    // descriptor slot 0 with generation 1 on every node, so peers can
    // build handles without a directory (a "well-known" segment).
    for (size_t i = 0; i < kNodes; ++i) {
        members[i].node = c.nodes[i].get();
        members[i].engine = c.engines[i].get();
        members[i].proc = &c.nodes[i]->spawnProcess("balancer");
        members[i].board = members[i].proc->space().allocRegion(4096);
        auto h = c.engines[i]->exportSegment(
            *members[i].proc, members[i].board, 4 * kNodes,
            rmem::Rights::kWrite | rmem::Rights::kRead,
            rmem::NotifyPolicy::kNever, "load.board");
        REMORA_ASSERT(h.ok());
    }
    for (size_t i = 0; i < kNodes; ++i) {
        for (size_t j = 0; j < kNodes; ++j) {
            if (i == j) {
                continue;
            }
            members[i].peers.push_back(rmem::ImportedSegment{
                static_cast<net::NodeId>(j + 1), 0, 1, 4 * kNodes,
                rmem::Rights::kWrite});
        }
    }

    std::vector<sim::Task<void>> loops;
    std::vector<std::unique_ptr<sim::Random>> rngs;
    for (size_t i = 0; i < kNodes; ++i) {
        rngs.push_back(std::make_unique<sim::Random>(100 + i));
        loops.push_back(gossipLoop(&members[i], i, rngs.back().get()));
    }
    c.sim.run();

    std::printf("%-6s  %-10s  %-12s  %s\n", "node", "final load",
                "migrations", "board view (loads seen locally)");
    for (size_t i = 0; i < kNodes; ++i) {
        std::string view;
        for (size_t j = 0; j < kNodes; ++j) {
            auto w = members[i].proc->space().readWord(members[i].board +
                                                       4 * j);
            view += std::to_string(w.value());
            view += j + 1 < kNodes ? " " : "";
        }
        std::printf("ws%-4zu  %-10u  %-12llu  [%s]\n", i + 1,
                    members[i].load,
                    static_cast<unsigned long long>(members[i].migrations),
                    view.c_str());
    }

    uint64_t notifications = 0;
    for (auto &e : c.engines) {
        notifications += e->stats().notificationsPosted.value();
    }
    std::printf("\ncontrol transfers across the whole run: %llu "
                "(hints need none)\n",
                static_cast<unsigned long long>(notifications));
    return 0;
}
