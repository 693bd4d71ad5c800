/**
 * @file
 * RPC baseline tests: marshaling, the six-step transport, local RPC
 * cost accounting, and the Hybrid-1 mechanism.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "rpc/hybrid1.h"
#include "rpc/local_rpc.h"
#include "rpc/marshal.h"
#include "rpc/transport.h"

namespace remora {
namespace {

using test::runToCompletion;
using test::TwoNodeCluster;

// ----------------------------------------------------------------------
// Marshal
// ----------------------------------------------------------------------

TEST(Marshal, ScalarsAndStringsRoundTrip)
{
    rpc::Marshal m;
    m.putU32(7);
    m.putU64(1ull << 40);
    m.putString("xyzzy");
    auto buf = m.take();
    EXPECT_EQ(buf.size() % 4, 0u);

    rpc::Unmarshal u(buf);
    EXPECT_EQ(u.getU32(), 7u);
    EXPECT_EQ(u.getU64(), 1ull << 40);
    EXPECT_EQ(u.getString(), "xyzzy");
    EXPECT_TRUE(u.ok());
}

class OpaqueRoundTrip : public ::testing::TestWithParam<size_t>
{};

TEST_P(OpaqueRoundTrip, PadsToXdrAlignment)
{
    std::vector<uint8_t> data(GetParam());
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i);
    }
    rpc::Marshal m;
    m.putOpaque(data);
    EXPECT_EQ(m.size() % 4, 0u);
    EXPECT_EQ(m.size(), 4 + ((data.size() + 3) / 4) * 4);
    auto buf = m.take();
    rpc::Unmarshal u(buf);
    EXPECT_EQ(u.getOpaque(), data);
    EXPECT_TRUE(u.ok());
    EXPECT_EQ(u.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OpaqueRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 100, 8192));

TEST(Marshal, TruncatedDecodeSetsNotOk)
{
    rpc::Marshal m;
    m.putU32(3);
    auto buf = m.take();
    rpc::Unmarshal u(buf);
    u.getU32();
    u.getU64(); // past the end
    EXPECT_FALSE(u.ok());
}

// ----------------------------------------------------------------------
// RpcTransport
// ----------------------------------------------------------------------

struct RpcFixture
{
    TwoNodeCluster cluster;
    rpc::RpcTransport client;
    rpc::RpcTransport server;

    RpcFixture()
        : client(cluster.engineA.wire()), server(cluster.engineB.wire())
    {}
};

TEST(RpcTransport, EchoCallRoundTrip)
{
    RpcFixture f;
    f.server.registerProc(
        5, [&f](net::NodeId src,
                std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            EXPECT_EQ(src, 1);
            co_await f.cluster.nodeB.cpu().use(
                sim::usec(100), sim::CpuCategory::kProcExec);
            std::reverse(args.begin(), args.end());
            co_return args;
        });

    auto t = f.client.call(2, 5, {1, 2, 3, 4});
    auto reply = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value(), (std::vector<uint8_t>{4, 3, 2, 1}));
    EXPECT_EQ(f.client.stats().callsIssued.value(), 1u);
    EXPECT_EQ(f.server.stats().callsServed.value(), 1u);
}

TEST(RpcTransport, CallBodyKeepsItsBytes)
{
    // [proc u32][args as XDR opaque], as the server's wire receives it.
    TwoNodeCluster cluster;
    rpc::RpcTransport client(cluster.engineA.wire());
    std::vector<uint8_t> body;
    cluster.engineB.wire().setRpcHandler(
        [&body](net::NodeId, rmem::Message &&msg) {
            body = std::get<rmem::RpcMsg>(msg).body;
        });
    auto t = client.call(2, 5, {1, 2, 3}, sim::msec(1));
    EXPECT_EQ(runToCompletion(cluster.sim, t).status().code(),
              util::ErrorCode::kTimeout);
    EXPECT_EQ(test::hexOf(body), "050000000300000001020300");
}

TEST(RpcTransport, ReplyBodiesKeepTheirBytes)
{
    // [status u32][results as XDR opaque]: status 0 with the handler's
    // results, or 1 with none for a procedure nobody registered.
    TwoNodeCluster cluster;
    rpc::RpcTransport server(cluster.engineB.wire());
    server.registerProc(5, [](net::NodeId, std::vector<uint8_t>)
                               -> sim::Task<std::vector<uint8_t>> {
        co_return std::vector<uint8_t>{9, 8, 7, 6, 5};
    });
    std::vector<std::string> replies;
    cluster.engineA.wire().setRpcHandler(
        [&replies](net::NodeId, rmem::Message &&msg) {
            replies.push_back(
                test::hexOf(std::get<rmem::RpcMsg>(msg).body));
        });
    auto send = [&cluster](uint32_t xid, const std::string &body) {
        rmem::RpcMsg m;
        m.xid = xid;
        m.body = test::bytesOf(body);
        cluster.engineA.wire().send(2, rmem::Message(std::move(m)),
                                    sim::CpuCategory::kDataReply);
    };
    send(1, "050000000300000001020300");
    send(2, "9401000000000000");
    cluster.sim.run();
    EXPECT_EQ(replies, (std::vector<std::string>{
                           "00000000050000000908070605000000",
                           "0100000000000000"}));
}

TEST(RpcTransport, UnknownProcFails)
{
    RpcFixture f;
    auto t = f.client.call(2, 404, {});
    auto reply = runToCompletion(f.cluster.sim, t);
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(f.server.stats().badProc.value(), 1u);
}

TEST(RpcTransport, TimeoutWhenServerSilent)
{
    RpcFixture f;
    // No handler registered AND the server's transport is silenced by
    // replacing its wire handler.
    f.cluster.engineB.wire().setRpcHandler(
        [](net::NodeId, rmem::Message &&) {});
    auto t = f.client.call(2, 1, {}, sim::msec(5));
    auto reply = runToCompletion(f.cluster.sim, t);
    EXPECT_EQ(reply.status().code(), util::ErrorCode::kTimeout);
    EXPECT_EQ(f.client.stats().timeouts.value(), 1u);
}

TEST(RpcTransport, ConcurrentCallsMatchByXid)
{
    RpcFixture f;
    f.server.registerProc(
        1, [&f](net::NodeId,
                std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            // Slower for smaller payloads: replies return out of order.
            sim::Duration d = sim::usec(args[0] == 1 ? 500 : 50);
            co_await f.cluster.nodeB.cpu().use(d,
                                               sim::CpuCategory::kProcExec);
            co_return args;
        });
    auto t1 = f.client.call(2, 1, {1});
    auto t2 = f.client.call(2, 1, {2});
    auto r1 = runToCompletion(f.cluster.sim, t1);
    auto r2 = runToCompletion(f.cluster.sim, t2);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_EQ(r1.value()[0], 1);
    EXPECT_EQ(r2.value()[0], 2);
}

TEST(RpcTransport, ChargesControlTransferToBothCpus)
{
    RpcFixture f;
    f.server.registerProc(
        1, [](net::NodeId,
              std::vector<uint8_t>) -> sim::Task<std::vector<uint8_t>> {
            co_return std::vector<uint8_t>{};
        });
    auto t = f.client.call(2, 1, {});
    ASSERT_TRUE(runToCompletion(f.cluster.sim, t).ok());
    f.cluster.sim.run();
    // Steps 1, 5, 6 land on the client; 2, 3, 4 (plus the socket-layer
    // payload copies) on the server.
    rpc::ThreadModelCosts costs;
    EXPECT_EQ(f.cluster.nodeA.cpu().busyIn(
                  sim::CpuCategory::kControlTransfer),
              costs.clientBlock + costs.clientPacket + costs.clientResume);
    sim::Duration serverCtl = f.cluster.nodeB.cpu().busyIn(
        sim::CpuCategory::kControlTransfer);
    sim::Duration base =
        costs.serverPacket + costs.serverDispatch + costs.serverReturn;
    EXPECT_GE(serverCtl, base);
    EXPECT_LE(serverCtl, base + sim::usec(5)); // tiny-body copies only
}

TEST(RpcTransport, LargeArgumentsTravelAsFrames)
{
    RpcFixture f;
    f.server.registerProc(
        9, [](net::NodeId,
              std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });
    std::vector<uint8_t> big(20000);
    for (size_t i = 0; i < big.size(); ++i) {
        big[i] = static_cast<uint8_t>(i * 7);
    }
    auto t = f.client.call(2, 9, big);
    auto reply = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value(), big);
}

// ----------------------------------------------------------------------
// LocalRpc
// ----------------------------------------------------------------------

TEST(LocalRpc, ChargesBothTransitions)
{
    sim::Simulator sim;
    sim::CpuResource cpu(sim, "cpu");
    rpc::LocalRpcCosts costs{sim::usec(50), sim::usec(70)};
    rpc::LocalRpc lrpc(cpu, costs);
    EXPECT_EQ(lrpc.roundTripCost(), sim::usec(120));

    auto t = [](rpc::LocalRpc *l) -> sim::Task<void> {
        co_await l->enterCallee();
        co_await l->returnToCaller();
    }(&lrpc);
    sim.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(cpu.busyIn(sim::CpuCategory::kProcInvoke), sim::usec(120));
}

// ----------------------------------------------------------------------
// Hybrid-1
// ----------------------------------------------------------------------

struct HybridFixture
{
    TwoNodeCluster cluster;
    mem::Process &serverProc;
    rpc::Hybrid1Server server;
    mem::Process &clientProc;
    rpc::Hybrid1Client client;

    HybridFixture()
        : serverProc(cluster.nodeB.spawnProcess("server")),
          server(cluster.engineB, serverProc),
          clientProc(cluster.nodeA.spawnProcess("client")),
          client(cluster.engineA, clientProc,
                 server.requestSegmentHandle(), server.allocSlot())
    {}
};

TEST(Hybrid1, CallRoundTrip)
{
    HybridFixture f;
    f.server.setHandler(
        [&f](net::NodeId src,
             std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            EXPECT_EQ(src, 1);
            co_await f.cluster.nodeB.cpu().use(
                sim::usec(100), sim::CpuCategory::kProcExec);
            for (uint8_t &b : args) {
                b = static_cast<uint8_t>(b + 1);
            }
            co_return args;
        });
    f.server.start();

    auto t = f.client.call({10, 20, 30});
    auto reply = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value(), (std::vector<uint8_t>{11, 21, 31}));
    EXPECT_EQ(f.server.served(), 1u);
}

TEST(Hybrid1, SequentialCallsReuseSlot)
{
    HybridFixture f;
    f.server.setHandler(
        [](net::NodeId,
           std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });
    f.server.start();
    for (uint8_t i = 0; i < 5; ++i) {
        auto t = f.client.call({i});
        auto reply = runToCompletion(f.cluster.sim, t);
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply.value()[0], i);
    }
    EXPECT_EQ(f.server.served(), 5u);
}

TEST(Hybrid1, LargePayloadBothWays)
{
    HybridFixture f;
    f.server.setHandler(
        [](net::NodeId,
           std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            args.resize(args.size() * 2, 0xcc);
            co_return args;
        });
    f.server.start();
    std::vector<uint8_t> args(6000, 0x1b);
    auto t = f.client.call(args);
    auto reply = runToCompletion(f.cluster.sim, t);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().size(), 12000u);
}

TEST(Hybrid1, MultipleClientsDistinctSlots)
{
    TwoNodeCluster cluster;
    mem::Process &serverProc = cluster.nodeB.spawnProcess("server");
    rpc::Hybrid1Server server(cluster.engineB, serverProc);
    server.setHandler(
        [](net::NodeId,
           std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });
    server.start();

    mem::Process &p1 = cluster.nodeA.spawnProcess("c1");
    mem::Process &p2 = cluster.nodeA.spawnProcess("c2");
    rpc::Hybrid1Client c1(cluster.engineA, p1, server.requestSegmentHandle(),
                          server.allocSlot());
    rpc::Hybrid1Client c2(cluster.engineA, p2, server.requestSegmentHandle(),
                          server.allocSlot());

    auto t1 = c1.call({1});
    auto t2 = c2.call({2});
    auto r1 = runToCompletion(cluster.sim, t1);
    auto r2 = runToCompletion(cluster.sim, t2);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_EQ(r1.value()[0], 1);
    EXPECT_EQ(r2.value()[0], 2);
}

TEST(Hybrid1, ServerPaysControlTransferPerCall)
{
    HybridFixture f;
    f.server.setHandler(
        [](net::NodeId,
           std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });
    f.server.start();
    f.cluster.sim.run();
    f.cluster.nodeB.cpu().resetAccounting();

    auto t = f.client.call({1});
    ASSERT_TRUE(runToCompletion(f.cluster.sim, t).ok());
    f.cluster.sim.run();

    rmem::CostModel costs;
    EXPECT_GE(f.cluster.nodeB.cpu().busyIn(
                  sim::CpuCategory::kControlTransfer),
              costs.notifyDispatchCost);
}

TEST(Hybrid1, TimeoutWhenServerNotStarted)
{
    HybridFixture f;
    // Handler installed but dispatch loop never started.
    f.server.setHandler(
        [](net::NodeId,
           std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });
    auto t = f.client.call({1}, sim::msec(5));
    auto reply = runToCompletion(f.cluster.sim, t);
    EXPECT_EQ(reply.status().code(), util::ErrorCode::kTimeout);
}

} // namespace
} // namespace remora
