/**
 * @file
 * Randomized property tests: seeded fuzzing of the codecs and the
 * event engine. Each suite draws hundreds of random shapes from a
 * deterministic PCG stream, so failures reproduce exactly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cluster_fixture.h"
#include "net/aal5.h"
#include "net/fault.h"
#include "rmem/protocol.h"
#include "rpc/marshal.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace remora {
namespace {

// ----------------------------------------------------------------------
// Event-queue ordering property
// ----------------------------------------------------------------------

TEST(PropertySimulator, RandomScheduleExecutesInNondecreasingTime)
{
    sim::Random rng(2024);
    for (int trial = 0; trial < 20; ++trial) {
        sim::Simulator sim;
        std::vector<sim::Time> fired;
        int events = 50 + static_cast<int>(rng.uniformInt(200));
        for (int i = 0; i < events; ++i) {
            sim::Duration when = rng.uniformInt(10000);
            sim.schedule(when, [&fired, &sim] { fired.push_back(sim.now()); });
        }
        sim.run();
        ASSERT_EQ(fired.size(), static_cast<size_t>(events));
        EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()))
            << "trial " << trial;
    }
}

TEST(PropertySimulator, RandomCancellationNeverFiresCancelled)
{
    sim::Random rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        sim::Simulator sim;
        std::map<sim::EventId, bool> cancelled;
        std::vector<sim::EventId> ids;
        int fired = 0;
        for (int i = 0; i < 100; ++i) {
            sim::EventId id =
                sim.schedule(rng.uniformInt(1000), [&fired] { ++fired; });
            ids.push_back(id);
            cancelled[id] = false;
        }
        int toCancel = 0;
        for (sim::EventId id : ids) {
            if (rng.bernoulli(0.4)) {
                sim.cancel(id);
                cancelled[id] = true;
                ++toCancel;
            }
        }
        sim.run();
        EXPECT_EQ(fired, 100 - toCancel);
    }
}

// ----------------------------------------------------------------------
// AAL5 fuzz: random frames and random interleavings round-trip
// ----------------------------------------------------------------------

TEST(PropertyAal5, RandomFramesRoundTrip)
{
    sim::Random rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        size_t len = rng.uniformInt(5000);
        std::vector<uint8_t> frame(len);
        for (auto &b : frame) {
            b = static_cast<uint8_t>(rng.nextU32());
        }
        auto cells = net::aal5Segment(3, 5, frame);
        net::Aal5Reassembler reasm;
        std::optional<net::Aal5Reassembler::Frame> out;
        for (const auto &cell : cells) {
            out = reasm.feed(cell);
        }
        ASSERT_TRUE(out.has_value()) << "trial " << trial;
        EXPECT_EQ(out->payload, frame) << "trial " << trial;
    }
}

TEST(PropertyAal5, RandomThreeWayInterleavingsReassemble)
{
    sim::Random rng(13);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<std::vector<uint8_t>> frames;
        std::vector<std::vector<net::Cell>> streams;
        for (uint16_t src = 1; src <= 3; ++src) {
            std::vector<uint8_t> frame(50 + rng.uniformInt(2000));
            for (auto &b : frame) {
                b = static_cast<uint8_t>(rng.nextU32() ^ src);
            }
            streams.push_back(net::aal5Segment(9, src, frame));
            frames.push_back(std::move(frame));
        }
        // Random fair interleave (per-source order preserved).
        net::Aal5Reassembler reasm;
        std::vector<size_t> pos(3, 0);
        int done = 0;
        std::map<uint16_t, std::vector<uint8_t>> results;
        while (done < 3) {
            size_t s = rng.uniformInt(3);
            if (pos[s] >= streams[s].size()) {
                continue;
            }
            if (auto f = reasm.feed(streams[s][pos[s]++])) {
                results[f->srcVci] = std::move(f->payload);
                ++done;
            }
        }
        for (uint16_t src = 1; src <= 3; ++src) {
            EXPECT_EQ(results[src], frames[src - 1])
                << "trial " << trial << " src " << src;
        }
    }
}

// ----------------------------------------------------------------------
// Protocol fuzz: decoder never crashes, arbitrary bytes never
// "succeed" into out-of-contract messages
// ----------------------------------------------------------------------

TEST(PropertyProtocol, RandomBytesNeverCrashDecoder)
{
    sim::Random rng(17);
    int decoded = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        size_t len = rng.uniformInt(64);
        std::vector<uint8_t> junk(len);
        for (auto &b : junk) {
            b = static_cast<uint8_t>(rng.nextU32());
        }
        size_t consumed = 0;
        auto r = rmem::decodeMessage(junk, &consumed);
        if (r.ok()) {
            ++decoded;
            // Whatever decoded must re-encode within its own length.
            EXPECT_LE(consumed, junk.size());
        }
    }
    // Some random inputs legitimately parse (that is fine); the suite's
    // contract is only "no crash, no overread".
    (void)decoded;
}

/** A message of a random type (of 12), every field drawn from @p rng. */
rmem::Message
randomMessage(sim::Random &rng)
{
    auto bytes = [&rng](size_t max) {
        std::vector<uint8_t> v(rng.uniformInt(max + 1));
        for (auto &b : v) {
            b = static_cast<uint8_t>(rng.nextU32());
        }
        return v;
    };
    auto u8 = [&rng] { return static_cast<uint8_t>(rng.nextU32()); };
    auto u16 = [&rng] { return static_cast<uint16_t>(rng.nextU32()); };
    auto flip = [&rng] { return rng.bernoulli(0.5); };
    switch (rng.uniformInt(12)) {
      case 0:
        return rmem::WriteReq{u8(), u16(), rng.nextU32() & 0x00ffffff, flip(),
                              bytes(rmem::kSmallWriteMax)};
      case 1:
        return rmem::WriteReq{u8(), u16(), rng.nextU32() | 0x01000000,
                              flip(), bytes(2000)};
      case 2:
        return rmem::ReadReq{u8(), u16(), rng.nextU32(), u8(),
                             rng.nextU32(), u16(), u16(), flip()};
      case 3:
        return rmem::ReadResp{u16(), static_cast<util::ErrorCode>(u8()),
                              bytes(2000)};
      case 4:
        return rmem::CasReq{u8(), u16(), rng.nextU32(), rng.nextU32(),
                            rng.nextU32(), u8(), rng.nextU32(), u16(),
                            flip()};
      case 5:
        return rmem::CasResp{u16(), flip(), rng.nextU32()};
      case 6:
        return rmem::Nak{u16(), static_cast<util::ErrorCode>(u8()),
                         static_cast<rmem::MsgType>(u8())};
      case 7:
        return rmem::RpcMsg{rng.nextU32(), flip(),
                            flip() ? rng.nextU64() : 0, bytes(2000)};
      case 8: {
        rmem::VectorReq m{u16(), {}};
        m.ops.resize(1 + rng.uniformInt(rmem::kMaxVectorOps));
        for (rmem::VectorSubOp &op : m.ops) {
            op = {static_cast<rmem::VecOpKind>(rng.uniformInt(3)), u8(),
                  u16(), rng.nextU32(), flip(), bytes(50), u16(),
                  rng.nextU32(), rng.nextU32()};
        }
        return m;
      }
      case 9: {
        rmem::VectorResp m{u16(), {}};
        m.results.resize(rng.uniformInt(rmem::kMaxVectorOps + 1));
        for (rmem::VectorSubResult &res : m.results) {
            res = {static_cast<util::ErrorCode>(u8()),
                   static_cast<rmem::VecOpKind>(rng.uniformInt(3)),
                   bytes(50), flip(), rng.nextU32()};
        }
        return m;
      }
      case 10:
        return rmem::SeqMsg{rng.nextU32(), rng.nextU32(), u8(), bytes(2000)};
      default:
        return rmem::AckMsg{rng.nextU32()};
    }
}

TEST(PropertyProtocol, EncodeDecodeIdempotentOnRandomMessages)
{
    sim::Random rng(19);
    std::map<rmem::MsgType, int> seen;
    for (int trial = 0; trial < 1200; ++trial) {
        rmem::Message msg = randomMessage(rng);
        ++seen[rmem::messageType(msg)];
        auto once = rmem::encodeMessage(msg);
        size_t consumed = 0;
        auto decoded = rmem::decodeMessage(once, &consumed);
        ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": "
                                  << decoded.status().toString();
        EXPECT_EQ(consumed, once.size()) << "trial " << trial;
        EXPECT_EQ(rmem::messageType(decoded.value()), rmem::messageType(msg));
        auto twice = rmem::encodeMessage(decoded.take());
        EXPECT_EQ(once, twice) << "trial " << trial;
    }
    EXPECT_EQ(seen.size(), 12u);
}

// ----------------------------------------------------------------------
// Marshal fuzz: random schedules of puts round-trip through gets
// ----------------------------------------------------------------------

TEST(PropertyMarshal, RandomFieldSequencesRoundTrip)
{
    sim::Random rng(23);
    for (int trial = 0; trial < 200; ++trial) {
        // Draw a random field schedule.
        std::vector<int> schedule;
        std::vector<uint64_t> ints;
        std::vector<std::string> strings;
        std::vector<std::vector<uint8_t>> blobs;
        rpc::Marshal m;
        int fields = 1 + static_cast<int>(rng.uniformInt(12));
        for (int i = 0; i < fields; ++i) {
            switch (rng.uniformInt(3)) {
              case 0: {
                uint64_t v = rng.nextU64();
                ints.push_back(v);
                m.putU64(v);
                schedule.push_back(0);
                break;
              }
              case 1: {
                std::string s(rng.uniformInt(40), 'x');
                for (auto &c : s) {
                    c = static_cast<char>('a' + rng.uniformInt(26));
                }
                strings.push_back(s);
                m.putString(s);
                schedule.push_back(1);
                break;
              }
              default: {
                std::vector<uint8_t> b(rng.uniformInt(100));
                for (auto &x : b) {
                    x = static_cast<uint8_t>(rng.nextU32());
                }
                blobs.push_back(b);
                m.putOpaque(b);
                schedule.push_back(2);
                break;
              }
            }
        }
        auto buf = m.take();
        rpc::Unmarshal u(buf);
        size_t ii = 0, si = 0, bi = 0;
        for (int kind : schedule) {
            switch (kind) {
              case 0:
                EXPECT_EQ(u.getU64(), ints[ii++]);
                break;
              case 1:
                EXPECT_EQ(u.getString(), strings[si++]);
                break;
              default:
                EXPECT_EQ(u.getOpaque(), blobs[bi++]);
                break;
            }
        }
        EXPECT_TRUE(u.ok()) << "trial " << trial;
        EXPECT_EQ(u.remaining(), 0u);
    }
}

// ----------------------------------------------------------------------
// Fault-plan fuzz: under any seed and any drop rate up to 20%, the
// reliable wire applies every acked WRITE exactly once and the cluster
// quiesces with nothing blocked
// ----------------------------------------------------------------------

TEST(PropertyFault, AnySeedModerateLossAppliesEveryWriteExactlyOnce)
{
    sim::Random meta(31);
    for (int trial = 0; trial < 8; ++trial) {
        uint64_t faultSeed = meta.nextU64();
        double dropRate = 0.20 * (meta.uniformInt(1000) / 1000.0);

        test::TwoNodeCluster c;
        c.enableReliability();
        mem::Process &server = c.nodeB.spawnProcess("server");
        mem::Vaddr base = server.space().allocRegion(8192);
        auto seg = c.engineB.exportSegment(
            server, base, 8192, rmem::Rights::kAll,
            rmem::NotifyPolicy::kConditional, "s");
        ASSERT_TRUE(seg.ok());
        c.sim.run();

        net::FaultPlan plan;
        plan.seed = faultSeed;
        plan.dropRate = dropRate;
        c.network.installFaults(plan);

        constexpr int kWrites = 12;
        uint64_t served0 = c.engineB.stats().requestsServed.value();
        std::vector<std::vector<uint8_t>> expected;
        for (int i = 0; i < kWrites; ++i) {
            std::vector<uint8_t> data(
                32 + meta.uniformInt(150)); // raw cells AND AAL5 frames
            for (auto &b : data) {
                b = static_cast<uint8_t>(meta.nextU32());
            }
            expected.push_back(data);
            auto w = c.engineA.write(seg.value(),
                                     static_cast<uint32_t>(i) * 256, data,
                                     /*notify=*/true);
            // WRITE completes locally; delivery is the wire's problem.
            while (!w.done() && c.sim.step()) {
            }
            ASSERT_TRUE(w.done());
            ASSERT_TRUE(w.result().ok());
        }
        c.sim.run();

        EXPECT_EQ(c.engineB.stats().requestsServed.value() - served0,
                  static_cast<uint64_t>(kWrites))
            << "seed=" << faultSeed << " drop=" << dropRate;
        auto *ch = c.engineB.channel(seg.value().descriptor);
        ASSERT_NE(ch, nullptr);
        rmem::Notification n;
        int notifications = 0;
        while (ch->tryNext(n)) {
            ++notifications;
        }
        EXPECT_EQ(notifications, kWrites)
            << "seed=" << faultSeed << " drop=" << dropRate;
        for (int i = 0; i < kWrites; ++i) {
            std::vector<uint8_t> got(expected[i].size());
            ASSERT_TRUE(
                server.space()
                    .read(base + static_cast<uint64_t>(i) * 256, got)
                    .ok());
            EXPECT_EQ(got, expected[i])
                << "seed=" << faultSeed << " write " << i;
        }
        EXPECT_EQ(c.engineA.wire().sendFailures(), 0u);
        EXPECT_EQ(c.sim.blockedTaskCount(), 0u)
            << "seed=" << faultSeed << " drop=" << dropRate;
    }
}

} // namespace
} // namespace remora
