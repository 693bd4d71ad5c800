/**
 * @file
 * Integration tests: the full stack assembled the way the paper's
 * cluster would be — name-service bootstrap, file service located
 * through it, multiple clients on a switch, and failure injection.
 */
#include <gtest/gtest.h>

#include <memory>

#include "cluster_fixture.h"
#include "dfs/backend.h"
#include "dfs/clerk.h"
#include "dfs/server.h"
#include "names/clerk.h"
#include "rpc/transport.h"
#include "util/bytes.h"

namespace remora {
namespace {

using test::runToCompletion;

TEST(Integration, FileServiceLocatedThroughNameService)
{
    // Three nodes on a switch: a file server and two client machines.
    // The server's cache areas are published through the name service;
    // clients bootstrap everything from segment names alone.
    cluster::Cluster c({.names = {"server", "c1", "c2"}, .switched = true});
    sim::Simulator &sim = c.sim;
    mem::Node &serverNode = *c.nodes[0];
    mem::Node &client1 = *c.nodes[1];
    rmem::RmemEngine &se = *c.engines[0], &e1 = *c.engines[1],
                     &e2 = *c.engines[2];

    // Name clerks boot first on every node (well-known slots).
    names::NameClerk names1(se), names2(e1), names3(e2);
    names1.addPeer(2);
    names1.addPeer(3);
    names2.addPeer(1);
    names2.addPeer(3);
    names3.addPeer(1);
    names3.addPeer(2);

    dfs::FileStore store;
    auto file = store.createFile(store.root(), "shared.dat", 12000);
    ASSERT_TRUE(file.ok());
    dfs::FileServer server(se, store);
    server.warmCaches();
    server.start();

    // Bootstrap: node 1 exports a tiny "directory" segment through the
    // name service whose contents are the six area handles; clients
    // import it by name and read the handles out with one remote read.
    mem::Process &pub = serverNode.spawnProcess("publisher");
    mem::Vaddr dirBase = pub.space().allocRegion(4096);
    {
        dfs::ServerAreaHandles areas = server.areaHandles();
        util::ByteWriter w(4096);
        auto putHandle = [&w](const rmem::ImportedSegment &h) {
            w.putU16(h.node);
            w.putU8(h.descriptor);
            w.putU8(static_cast<uint8_t>(h.rights));
            w.putU16(h.generation);
            w.putU16(0);
            w.putU32(h.size);
        };
        putHandle(areas.data);
        putHandle(areas.name);
        putHandle(areas.attr);
        putHandle(areas.dir);
        putHandle(areas.link);
        putHandle(areas.stat);
        ASSERT_TRUE(pub.space().write(dirBase, w.bytes()).ok());
    }
    auto expT = names1.exportByName(&pub, dirBase, 4096, rmem::Rights::kRead,
                                    rmem::NotifyPolicy::kNever, "dfs.areas");
    ASSERT_TRUE(runToCompletion(sim, expT).ok());

    // A client machine bootstraps from the name alone. The cluster
    // objects are handed in as pointers (copied into the coroutine
    // frame), the tree's idiom for suspension-safe lambda coroutines.
    auto bootstrap = [](names::NameClerk *names, rmem::RmemEngine *eng,
                        mem::Node *node)
        -> sim::Task<dfs::ServerAreaHandles> {
        auto dir = co_await names->import("dfs.areas", 1);
        REMORA_ASSERT(dir.ok());
        mem::Process &proc = node->spawnProcess("bootstrap");
        mem::Vaddr scratch = proc.space().allocRegion(4096);
        auto local = eng->exportSegment(proc, scratch, 4096,
                                        rmem::Rights::kRead,
                                        rmem::NotifyPolicy::kNever, "boot");
        REMORA_ASSERT(local.ok());
        auto bytes = co_await eng->read(dir.value(), 0,
                                        local.value().descriptor, 0, 72);
        REMORA_ASSERT(bytes.status.ok());
        util::ByteReader r(bytes.data);
        auto getHandle = [&r]() {
            rmem::ImportedSegment h;
            h.node = r.getU16();
            h.descriptor = r.getU8();
            h.rights = static_cast<rmem::Rights>(r.getU8());
            h.generation = r.getU16();
            r.skip(2);
            h.size = r.getU32();
            return h;
        };
        dfs::ServerAreaHandles areas;
        areas.data = getHandle();
        areas.name = getHandle();
        areas.attr = getHandle();
        areas.dir = getHandle();
        areas.link = getHandle();
        areas.stat = getHandle();
        co_return areas;
    };

    auto boot1 = bootstrap(&names2, &e1, &client1);
    auto areas1 = runToCompletion(sim, boot1);

    // The bootstrapped handles drive a working DX backend.
    mem::Process &clerkProc = client1.spawnProcess("clerk");
    dfs::DxBackend dx(e1, clerkProc, areas1);
    auto t = dx.read(file.value(), 0, 8192);
    auto got = runToCompletion(sim, t);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value(), store.read(file.value(), 0, 8192).value());
    EXPECT_EQ(dx.misses(), 0u);
}

TEST(Integration, TwoClientsShareOneServerCoherently)
{
    cluster::Cluster c({.names = {"server", "c1", "c2"}, .switched = true});
    sim::Simulator &sim = c.sim;
    rmem::RmemEngine &se = *c.engines[0], &e1 = *c.engines[1],
                     &e2 = *c.engines[2];

    dfs::FileStore store;
    auto file = store.createFile(store.root(), "shared", 8192);
    ASSERT_TRUE(file.ok());
    dfs::FileServer server(se, store);
    server.warmCaches();
    server.start();

    mem::Process &p1 = c.nodes[1]->spawnProcess("clerk1");
    mem::Process &p2 = c.nodes[2]->spawnProcess("clerk2");
    dfs::DxBackend dx1(e1, p1, server.areaHandles());
    dfs::DxBackend dx2(e2, p2, server.areaHandles());

    // Client 1 writes through DX; client 2 reads the new bytes straight
    // from the server's data area (the flag-word protocol at work).
    std::vector<uint8_t> newData(8192, 0x6c);
    auto w = dx1.write(file.value(), 0, newData);
    ASSERT_TRUE(runToCompletion(sim, w).ok());
    sim.run();

    auto r = dx2.read(file.value(), 0, 8192);
    auto got = runToCompletion(sim, r);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), newData);
}

TEST(Integration, RpcAndRmemShareOneWire)
{
    // The conventional transport and the remote-memory engine coexist
    // on the same kernel wire without interfering.
    test::TwoNodeCluster c;
    rpc::RpcTransport clientRpc(c.engineA.wire());
    rpc::RpcTransport serverRpc(c.engineB.wire());
    serverRpc.registerProc(
        1, [](net::NodeId,
              std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });

    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    auto seg = c.engineB.exportSegment(server, base, 4096,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "mix");
    ASSERT_TRUE(seg.ok());

    // Interleave RPC calls and remote writes.
    auto rpcCall = clientRpc.call(2, 1, {9, 8, 7});
    auto write = c.engineA.write(seg.value(), 0, {1, 2, 3});
    auto rpcReply = runToCompletion(c.sim, rpcCall);
    auto ws = runToCompletion(c.sim, write);
    c.sim.run();
    ASSERT_TRUE(rpcReply.ok());
    EXPECT_EQ(rpcReply.value(), (std::vector<uint8_t>{9, 8, 7}));
    EXPECT_TRUE(ws.ok());
    std::vector<uint8_t> check(3);
    ASSERT_TRUE(server.space().read(base, check).ok());
    EXPECT_EQ(check, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(Integration, ServerCrashSurfacesAsTimeouts)
{
    // §3.7: failure detection is timeouts in both models. Kill the
    // server's kernel handlers mid-run and watch both paths time out.
    test::TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Process &client = c.nodeA.spawnProcess("client");
    mem::Vaddr base = server.space().allocRegion(4096);
    auto seg = c.engineB.exportSegment(server, base, 4096,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "seg");
    ASSERT_TRUE(seg.ok());
    mem::Vaddr lbase = client.space().allocRegion(4096);
    auto local = c.engineA.exportSegment(client, lbase, 4096,
                                         rmem::Rights::kAll,
                                         rmem::NotifyPolicy::kNever, "l");
    ASSERT_TRUE(local.ok());

    // Healthy first.
    auto r1 = c.engineA.read(seg.value(), 0, local.value().descriptor, 0, 8,
                             false, sim::msec(5));
    EXPECT_TRUE(runToCompletion(c.sim, r1).status.ok());

    // Crash.
    c.engineB.wire().setRmemHandler([](net::NodeId, rmem::Message &&) {});
    c.engineB.wire().setRpcHandler([](net::NodeId, rmem::Message &&) {});

    auto r2 = c.engineA.read(seg.value(), 0, local.value().descriptor, 0, 8,
                             false, sim::msec(5));
    EXPECT_EQ(runToCompletion(c.sim, r2).status.code(),
              util::ErrorCode::kTimeout);

    rpc::RpcTransport clientRpc(c.engineA.wire());
    auto call = clientRpc.call(2, 1, {}, sim::msec(5));
    EXPECT_EQ(runToCompletion(c.sim, call).status().code(),
              util::ErrorCode::kTimeout);

    // The periodic-probe failure detector the paper sketches: a read
    // of a known value that stops answering.
    auto cas = c.engineA.cas(seg.value(), 0, 0, 1,
                             local.value().descriptor, 0, sim::msec(5));
    EXPECT_EQ(runToCompletion(c.sim, cas).status.code(),
              util::ErrorCode::kTimeout);
}

TEST(Integration, ManyConcurrentRemoteOpsComplete)
{
    test::SwitchedCluster c(4);
    // Node 1 exports; nodes 2-4 hammer it concurrently.
    rmem::ImportedSegment seg = c.exportOn(0, "hot", 64 * 1024);

    std::vector<sim::Task<void>> tasks;
    for (size_t n = 1; n < 4; ++n) {
        rmem::SegmentId local = c.exportOn(n, "l").descriptor;
        tasks.push_back([](rmem::RmemEngine *eng, rmem::ImportedSegment s,
                           rmem::SegmentId lseg,
                           uint32_t slot) -> sim::Task<void> {
            for (int i = 0; i < 20; ++i) {
                std::vector<uint8_t> data(64, static_cast<uint8_t>(slot));
                auto ws = co_await eng->write(s, slot * 4096 +
                                                     (i % 8) * 256,
                                              std::move(data));
                REMORA_ASSERT(ws.ok());
                auto rd = co_await eng->read(s, slot * 4096, lseg, 0, 64);
                REMORA_ASSERT(rd.status.ok());
                REMORA_ASSERT(rd.data[0] == slot);
            }
        }(c.engines[n].get(), seg, local, static_cast<uint32_t>(n)));
    }
    c.sim.run();
    for (auto &t : tasks) {
        EXPECT_TRUE(t.done());
        t.result(); // rethrow on failure
    }
}

} // namespace
} // namespace remora
