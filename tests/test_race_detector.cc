/**
 * @file
 * Tests for the happens-before race detector (rmem/race_detector):
 * vector-clock and shadow-map units, direct release/acquire mechanics,
 * and end-to-end fixtures — a known-racy two-importer write pair that
 * must be caught under every perturbation seed, a CAS-guarded counter
 * that must stay clean under every seed, and the name-clerk-style
 * reordered publish (valid word stored before the record body) that
 * motivated the §10 audit.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "rmem/race_detector.h"
#include "rmem/sync.h"
#include "util/bytes.h"

namespace remora {
namespace {

using rmem::RaceDetector;
using rmem::ShadowRangeMap;
using rmem::VectorClock;
using test::runToCompletion;
using test::SwitchedCluster;
using test::TwoNodeCluster;

/** Arm for the test body, disarm on exit so later suites run bare. */
struct Armed
{
    explicit Armed(const rmem::RaceDetectorOptions &opts = {})
    {
        RaceDetector::instance().arm(opts);
    }
    ~Armed() { RaceDetector::instance().disarm(); }
};

// ----------------------------------------------------------------------
// VectorClock
// ----------------------------------------------------------------------

TEST(VectorClock, UnseenActorIsEpochZero)
{
    VectorClock c;
    EXPECT_EQ(c.get(7), 0u);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_TRUE(c.covers(7, 0));
    EXPECT_FALSE(c.covers(7, 1));
}

TEST(VectorClock, BumpAdvancesOneActorOnly)
{
    VectorClock c;
    c.bump(1);
    c.bump(1);
    c.bump(2);
    EXPECT_EQ(c.get(1), 2u);
    EXPECT_EQ(c.get(2), 1u);
    EXPECT_EQ(c.get(3), 0u);
    EXPECT_EQ(c.size(), 2u);
}

TEST(VectorClock, JoinIsPointwiseMax)
{
    VectorClock a;
    a.set(1, 5);
    a.set(2, 1);
    VectorClock b;
    b.set(2, 4);
    b.set(3, 2);
    a.join(b);
    EXPECT_EQ(a.get(1), 5u);
    EXPECT_EQ(a.get(2), 4u);
    EXPECT_EQ(a.get(3), 2u);
    // The joined clock dominates both inputs.
    EXPECT_TRUE(b.leq(a));
}

TEST(VectorClock, LeqAndConcurrency)
{
    VectorClock a;
    a.set(1, 3);
    VectorClock b;
    b.set(1, 3);
    b.set(2, 1);
    EXPECT_TRUE(a.leq(b));
    EXPECT_FALSE(b.leq(a));
    EXPECT_FALSE(a.concurrentWith(b));

    VectorClock c;
    c.set(2, 9);
    EXPECT_TRUE(a.concurrentWith(c));
    EXPECT_TRUE(c.concurrentWith(a));

    // Equal clocks order both ways and are not concurrent.
    VectorClock d = a;
    EXPECT_TRUE(a.leq(d));
    EXPECT_TRUE(d.leq(a));
    EXPECT_FALSE(a.concurrentWith(d));
}

TEST(VectorClock, RendersActorEpochPairs)
{
    VectorClock a;
    a.set(2, 7);
    a.set(1, 4);
    EXPECT_EQ(a.str(), "{1:4 2:7}");
}

// ----------------------------------------------------------------------
// ShadowRangeMap
// ----------------------------------------------------------------------

TEST(ShadowRangeMap, CoversGapsAndSplitsAtBoundaries)
{
    ShadowRangeMap m;
    int pieces = 0;
    m.forRange(0, 64, [&](uint32_t, uint32_t, rmem::ShadowState &) {
        ++pieces;
    });
    EXPECT_EQ(pieces, 1);
    EXPECT_EQ(m.rangeCount(), 1u);

    // An interior touch splits the existing range at both ends.
    m.forRange(16, 32, [&](uint32_t lo, uint32_t hi, rmem::ShadowState &) {
        EXPECT_EQ(lo, 16u);
        EXPECT_EQ(hi, 32u);
    });
    auto r = m.ranges();
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0], std::make_pair(0u, 16u));
    EXPECT_EQ(r[1], std::make_pair(16u, 32u));
    EXPECT_EQ(r[2], std::make_pair(32u, 64u));
}

TEST(ShadowRangeMap, SplitStateIsInheritedByBothHalves)
{
    ShadowRangeMap m;
    m.forRange(0, 8, [&](uint32_t, uint32_t, rmem::ShadowState &st) {
        st.lastWrite.actor = 9;
        st.lastWrite.epoch = 42;
    });
    // Touch only the upper half; the recorded write must be visible.
    m.forRange(4, 8, [&](uint32_t, uint32_t, rmem::ShadowState &st) {
        EXPECT_EQ(st.lastWrite.actor, 9u);
        EXPECT_EQ(st.lastWrite.epoch, 42u);
    });
    // ...and still visible in the untouched lower half.
    m.forRange(0, 4, [&](uint32_t, uint32_t, rmem::ShadowState &st) {
        EXPECT_EQ(st.lastWrite.actor, 9u);
    });
}

TEST(ShadowRangeMap, ErasePunchesAHole)
{
    ShadowRangeMap m;
    m.forRange(0, 32, [](uint32_t, uint32_t, rmem::ShadowState &) {});
    m.erase(8, 16);
    auto r = m.ranges();
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0], std::make_pair(0u, 8u));
    EXPECT_EQ(r[1], std::make_pair(16u, 32u));

    // Re-covering the hole materialises fresh (empty) state there.
    m.forRange(8, 16, [](uint32_t, uint32_t, rmem::ShadowState &st) {
        EXPECT_EQ(st.lastWrite.actor, 0u);
    });
}

TEST(ShadowRangeMap, SpanningRangeVisitsPiecesInOrder)
{
    ShadowRangeMap m;
    m.forRange(10, 20, [](uint32_t, uint32_t, rmem::ShadowState &) {});
    m.forRange(30, 40, [](uint32_t, uint32_t, rmem::ShadowState &) {});
    std::vector<std::pair<uint32_t, uint32_t>> seen;
    m.forRange(0, 50, [&](uint32_t lo, uint32_t hi, rmem::ShadowState &) {
        seen.emplace_back(lo, hi);
    });
    ASSERT_EQ(seen.size(), 5u);
    EXPECT_EQ(seen.front(), std::make_pair(0u, 10u));
    EXPECT_EQ(seen.back(), std::make_pair(40u, 50u));
    uint32_t prev = 0;
    for (auto [lo, hi] : seen) {
        EXPECT_EQ(lo, prev);
        EXPECT_LT(lo, hi);
        prev = hi;
    }
    EXPECT_EQ(prev, 50u);
}

// ----------------------------------------------------------------------
// Detector mechanics, driven directly (no cluster)
// ----------------------------------------------------------------------

/** Attribute one access to @p actor at unit-test segment 7/1. */
void
unitAccess(rmem::ActorId actor, bool write, mem::Vaddr va, size_t len,
           sim::Time now, const std::string &site)
{
    RaceDetector::ScopedActor scope(actor, site);
    RaceDetector::instance().onLocalAccess(7, 0, write, va, len, now);
}

TEST(RaceDetector, UnorderedWriteWritePairIsReported)
{
    Armed armed;
    auto &det = RaceDetector::instance();
    det.registerSegment(7, 1, 0, 0x1000, 64, "unit");
    unitAccess(1, true, 0x1008, 4, 10, "first writer");
    unitAccess(2, true, 0x1008, 4, 20, "second writer");
    EXPECT_EQ(det.raceCount(), 1u);
    ASSERT_EQ(det.reports().size(), 1u);
    const auto &r = det.reports()[0];
    EXPECT_EQ(r.node, 7u);
    EXPECT_EQ(r.segmentName, "unit");
    EXPECT_EQ(r.lo, 8u);
    EXPECT_EQ(r.hi, 12u);
    EXPECT_EQ(r.prior.actor, 1u);
    EXPECT_EQ(r.prior.site, "first writer");
    EXPECT_TRUE(r.prior.write);
    EXPECT_EQ(r.current.actor, 2u);
    EXPECT_EQ(r.current.site, "second writer");
    EXPECT_FALSE(r.prior.clock.empty());
    EXPECT_FALSE(r.current.clock.empty());
    // The rendered report quotes both sites.
    std::string text = r.format();
    EXPECT_NE(text.find("first writer"), std::string::npos);
    EXPECT_NE(text.find("second writer"), std::string::npos);
}

TEST(RaceDetector, SameActorAccessesNeverConflict)
{
    Armed armed;
    auto &det = RaceDetector::instance();
    det.registerSegment(7, 1, 0, 0x1000, 64, "unit");
    unitAccess(1, true, 0x1000, 8, 10, "w");
    unitAccess(1, false, 0x1000, 8, 20, "r");
    unitAccess(1, true, 0x1004, 8, 30, "w2");
    EXPECT_EQ(det.raceCount(), 0u);
}

TEST(RaceDetector, ConcurrentReadsAreNotARace)
{
    Armed armed;
    auto &det = RaceDetector::instance();
    det.registerSegment(7, 1, 0, 0x1000, 64, "unit");
    unitAccess(1, false, 0x1010, 8, 10, "r1");
    unitAccess(2, false, 0x1010, 8, 20, "r2");
    EXPECT_EQ(det.raceCount(), 0u);
    // ...but a later unordered write conflicts with *both* readers.
    unitAccess(3, true, 0x1010, 8, 30, "w");
    EXPECT_GE(det.raceCount(), 2u);
}

TEST(RaceDetector, SyncWordCarriesReleaseAcquireOrdering)
{
    Armed armed;
    auto &det = RaceDetector::instance();
    det.registerSegment(7, 1, 0, 0x1000, 64, "unit");
    det.markSyncWord(7, 1, 0);

    // Writer publishes data, then stores the sync word (release).
    unitAccess(1, true, 0x1010, 4, 10, "publish data");
    unitAccess(1, true, 0x1000, 4, 11, "publish flag");
    // Reader polls the sync word (acquire), then reads the data.
    unitAccess(2, false, 0x1000, 4, 12, "poll flag");
    unitAccess(2, false, 0x1010, 4, 13, "consume data");
    EXPECT_EQ(det.raceCount(), 0u) << "release/acquire chain not honoured";

    // Unordered stores *to the sync word itself* are not data races.
    unitAccess(3, true, 0x1000, 4, 14, "contending flag store");
    EXPECT_EQ(det.raceCount(), 0u);
}

TEST(RaceDetector, SkippingTheAcquireIsARace)
{
    Armed armed;
    auto &det = RaceDetector::instance();
    det.registerSegment(7, 1, 0, 0x1000, 64, "unit");
    det.markSyncWord(7, 1, 0);
    unitAccess(1, true, 0x1010, 4, 10, "publish data");
    unitAccess(1, true, 0x1000, 4, 11, "publish flag");
    // Reader goes straight for the data without polling the flag.
    unitAccess(2, false, 0x1010, 4, 12, "impatient read");
    EXPECT_EQ(det.raceCount(), 1u);
}

TEST(RaceDetector, TokenEdgesOrderAccesses)
{
    Armed armed;
    auto &det = RaceDetector::instance();
    det.registerSegment(7, 1, 0, 0x1000, 64, "unit");
    int token = 0; // identity only; mirrors a NotificationChannel*
    unitAccess(1, true, 0x1020, 4, 10, "producer");
    det.releaseToken(&token, 1);
    det.acquireToken(&token, 2);
    unitAccess(2, true, 0x1020, 4, 20, "consumer");
    EXPECT_EQ(det.raceCount(), 0u);
}

TEST(RaceDetector, GranularityWidensTheCheckedRange)
{
    rmem::RaceDetectorOptions opts;
    opts.granularity = 8;
    Armed armed(opts);
    auto &det = RaceDetector::instance();
    det.registerSegment(7, 1, 0, 0x1000, 64, "unit");
    // Disjoint single bytes inside one 8-byte grain now collide:
    // the price of a coarser shadow map is false sharing, exactly as
    // with a real detector's shadow-cell granularity.
    unitAccess(1, true, 0x1010, 1, 10, "byte 0x10");
    unitAccess(2, true, 0x1013, 1, 20, "byte 0x13");
    EXPECT_EQ(det.raceCount(), 1u);
}

TEST(RaceDetector, ReportCapStopsRecordingNotCounting)
{
    rmem::RaceDetectorOptions opts;
    opts.maxReports = 2;
    Armed armed(opts);
    auto &det = RaceDetector::instance();
    det.registerSegment(7, 1, 0, 0x1000, 64, "unit");
    for (int i = 0; i < 5; ++i) {
        unitAccess(1, true, 0x1000 + 8 * i, 4, 10 + i, "a");
        unitAccess(2, true, 0x1000 + 8 * i, 4, 20 + i, "b");
    }
    EXPECT_EQ(det.reports().size(), 2u);
    EXPECT_EQ(det.raceCount(), 5u);
}

// ----------------------------------------------------------------------
// End-to-end: known-racy two-importer writes, across perturbation seeds
// ----------------------------------------------------------------------

TEST(RaceDetectorCluster, TwoImporterWritesCaughtUnderEverySeed)
{
    for (uint64_t seed = 0; seed < 8; ++seed) {
        Armed armed; // arm *before* export so segments register
        SwitchedCluster c(3);
        c.sim.setPerturbation(seed);

        mem::Process &owner = c.nodes[0]->spawnProcess("owner");
        mem::Vaddr base = owner.space().allocRegion(4096);
        auto h = c.engines[0]->exportSegment(owner, base, 4096,
                                             rmem::Rights::kAll,
                                             rmem::NotifyPolicy::kNever,
                                             "shared");
        ASSERT_TRUE(h.ok());

        // Both importers write [32, 96) and [0, 64): bytes [32, 64)
        // overlap with no ordering primitive anywhere in sight.
        auto t1 = c.engines[1]->write(h.value(), 0,
                                      std::vector<uint8_t>(64, 0xaa));
        auto t2 = c.engines[2]->write(h.value(), 32,
                                      std::vector<uint8_t>(64, 0xbb));
        c.sim.run();
        EXPECT_TRUE(t1.done() && t2.done());

        auto &det = RaceDetector::instance();
        ASSERT_FALSE(det.reports().empty())
            << "unsynchronized overlapping writes missed at seed " << seed;
        const auto &r = det.reports()[0];
        EXPECT_EQ(r.segmentName, "shared");
        EXPECT_EQ(r.lo, 32u);
        EXPECT_EQ(r.hi, 64u);
        // Both sides name the initiating importer and carry clocks.
        EXPECT_EQ(r.prior.site, "rmem serve_write from node " +
                                    std::to_string(r.prior.actor));
        EXPECT_EQ(r.current.site, "rmem serve_write from node " +
                                      std::to_string(r.current.actor));
        EXPECT_NE(r.prior.actor, r.current.actor);
        EXPECT_FALSE(r.prior.clock.empty());
        EXPECT_FALSE(r.current.clock.empty());
    }
}

// ----------------------------------------------------------------------
// End-to-end: vectored writes race at sub-op byte-range granularity
// ----------------------------------------------------------------------

TEST(RaceDetectorCluster, OverlappingVectoredWritesCaughtPerSubOp)
{
    for (uint64_t seed = 0; seed < 8; ++seed) {
        Armed armed;
        SwitchedCluster c(3);
        c.sim.setPerturbation(seed);

        mem::Process &owner = c.nodes[0]->spawnProcess("owner");
        mem::Vaddr base = owner.space().allocRegion(4096);
        auto h = c.engines[0]->exportSegment(owner, base, 4096,
                                             rmem::Rights::kAll,
                                             rmem::NotifyPolicy::kNever,
                                             "shared");
        ASSERT_TRUE(h.ok());

        // Each importer sends one vectored WRITE of two sub-ops. Only
        // ONE sub-op pair overlaps — bytes [32, 64) — so a detector
        // attributing accesses at whole-batch granularity would report
        // the wrong range (or flag the disjoint pair too).
        std::vector<rmem::BatchBuilder::Write> w1;
        w1.push_back({h.value(), 0, std::vector<uint8_t>(64, 0xaa), false});
        w1.push_back(
            {h.value(), 256, std::vector<uint8_t>(32, 0xaa), false});
        std::vector<rmem::BatchBuilder::Write> w2;
        w2.push_back({h.value(), 32, std::vector<uint8_t>(32, 0xbb), false});
        w2.push_back(
            {h.value(), 512, std::vector<uint8_t>(32, 0xbb), false});
        auto t1 = c.engines[1]->writev(std::move(w1));
        auto t2 = c.engines[2]->writev(std::move(w2));
        c.sim.run();
        EXPECT_TRUE(t1.done() && t2.done());

        auto &det = RaceDetector::instance();
        ASSERT_EQ(det.raceCount(), 1u)
            << "seed " << seed << ": expected exactly the one "
            << "overlapping sub-op pair";
        const auto &r = det.reports()[0];
        EXPECT_EQ(r.segmentName, "shared");
        EXPECT_EQ(r.lo, 32u);
        EXPECT_EQ(r.hi, 64u);
        EXPECT_EQ(r.prior.site, "rmem serve_vector sub-op from node " +
                                    std::to_string(r.prior.actor));
        EXPECT_EQ(r.current.site, "rmem serve_vector sub-op from node " +
                                      std::to_string(r.current.actor));
        EXPECT_NE(r.prior.actor, r.current.actor);
    }
}

TEST(RaceDetectorCluster, DisjointVectoredWritesStayClean)
{
    for (uint64_t seed = 0; seed < 8; ++seed) {
        Armed armed;
        SwitchedCluster c(3);
        c.sim.setPerturbation(seed);

        mem::Process &owner = c.nodes[0]->spawnProcess("owner");
        mem::Vaddr base = owner.space().allocRegion(4096);
        auto h = c.engines[0]->exportSegment(owner, base, 4096,
                                             rmem::Rights::kAll,
                                             rmem::NotifyPolicy::kNever,
                                             "shared");
        ASSERT_TRUE(h.ok());

        // Interleaved stripes, byte-adjacent but never overlapping.
        std::vector<rmem::BatchBuilder::Write> w1, w2;
        for (uint32_t i = 0; i < 4; ++i) {
            w1.push_back({h.value(), i * 64,
                          std::vector<uint8_t>(32, 0xaa), false});
            w2.push_back({h.value(), i * 64 + 32,
                          std::vector<uint8_t>(32, 0xbb), false});
        }
        auto t1 = c.engines[1]->writev(std::move(w1));
        auto t2 = c.engines[2]->writev(std::move(w2));
        c.sim.run();
        EXPECT_TRUE(t1.done() && t2.done());

        auto &det = RaceDetector::instance();
        EXPECT_EQ(det.raceCount(), 0u)
            << "seed " << seed << ": "
            << (det.reports().empty() ? std::string("(capped)")
                                      : det.reports()[0].format());
        EXPECT_GT(det.accessesChecked(), 0u);
    }
}

// ----------------------------------------------------------------------
// End-to-end: CAS-guarded counter stays clean across perturbation seeds
// ----------------------------------------------------------------------

TEST(RaceDetectorCluster, SpinLockGuardedCounterCleanUnderEverySeed)
{
    constexpr int kItersPerWorker = 4;
    for (uint64_t seed = 0; seed < 8; ++seed) {
        Armed armed;
        SwitchedCluster c(3);
        c.sim.setPerturbation(seed);

        mem::Process &home = c.nodes[0]->spawnProcess("home");
        mem::Vaddr base = home.space().allocRegion(4096);
        auto shared = c.engines[0]->exportSegment(home, base, 4096,
                                                  rmem::Rights::kAll,
                                                  rmem::NotifyPolicy::kNever,
                                                  "page");
        ASSERT_TRUE(shared.ok());

        // Lock word at offset 0 (marked sync by SpinLock); the counter
        // lives at offset 64, ordered only by the lock.
        struct Worker
        {
            std::unique_ptr<rmem::SpinLock> lock;
            rmem::SegmentId scratch = 0;
            sim::Task<void> task{};
        };
        std::vector<Worker> workers(2);
        for (size_t i = 0; i < 2; ++i) {
            auto &eng = *c.engines[i + 1];
            mem::Process &proc = c.nodes[i + 1]->spawnProcess("w");
            mem::Vaddr lbase = proc.space().allocRegion(4096);
            auto l = eng.exportSegment(proc, lbase, 4096,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "s");
            ASSERT_TRUE(l.ok());
            workers[i].scratch = l.value().descriptor;
            workers[i].lock = std::make_unique<rmem::SpinLock>(
                eng, shared.value(), 0, workers[i].scratch, 0,
                static_cast<uint32_t>(0x100 + i));
        }
        for (size_t i = 0; i < 2; ++i) {
            workers[i].task =
                [](rmem::RmemEngine *eng, rmem::SpinLock *lock,
                   rmem::ImportedSegment page,
                   rmem::SegmentId scratch) -> sim::Task<void> {
                for (int k = 0; k < kItersPerWorker; ++k) {
                    auto s = co_await lock->acquire();
                    REMORA_ASSERT(s.ok());
                    rmem::ReadOutcome cur =
                        co_await eng->read(page, 64, scratch, 16, 4);
                    REMORA_ASSERT(cur.status.ok());
                    uint32_t v = util::ByteReader(cur.data).getU32();
                    util::ByteWriter w(4);
                    w.putU32(v + 1);
                    auto ws = co_await eng->write(
                        page, 64,
                        std::vector<uint8_t>(w.bytes().begin(),
                                             w.bytes().end()));
                    REMORA_ASSERT(ws.ok());
                    auto r = co_await lock->release();
                    REMORA_ASSERT(r.ok());
                }
            }(&*c.engines[i + 1], workers[i].lock.get(), shared.value(),
                  workers[i].scratch);
        }
        c.sim.run();
        for (auto &w : workers) {
            ASSERT_TRUE(w.task.done());
            w.task.result();
        }

        auto &det = RaceDetector::instance();
        EXPECT_EQ(det.raceCount(), 0u)
            << "seed " << seed << ": "
            << (det.reports().empty() ? std::string("(capped)")
                                      : det.reports()[0].format());
        EXPECT_GT(det.accessesChecked(), 0u);

        // Disarm before poking memory locally — the owner never takes
        // the lock, so an armed local read would itself be flagged.
        det.disarm();
        std::vector<uint8_t> buf(4);
        ASSERT_TRUE(home.space().read(base + 64, buf).ok());
        EXPECT_EQ(util::ByteReader(buf).getU32(),
                  2u * kItersPerWorker);
    }
}

// ----------------------------------------------------------------------
// End-to-end: the name-clerk publish-order audit, §10
// ----------------------------------------------------------------------

/**
 * A registry-style record publish done in the *wrong* order — valid
 * word stored before the record body, the bug class the names/clerk.cc
 * audit is guarding against — must be caught: a remote probe that
 * acquires the valid word still finds body bytes newer than anything
 * the word released.
 */
TEST(RaceDetectorCluster, FlagFirstPublishIsCaught)
{
    Armed armed;
    TwoNodeCluster c;
    mem::Process &owner = c.nodeA.spawnProcess("registry");
    mem::Vaddr base = owner.space().allocRegion(4096);
    auto h = c.engineA.exportSegment(owner, base, 128, rmem::Rights::kRead,
                                     rmem::NotifyPolicy::kNever,
                                     "registry");
    ASSERT_TRUE(h.ok());
    auto &det = RaceDetector::instance();
    det.markSyncWord(1, h.value().descriptor, 0); // the valid word

    mem::Process &reader = c.nodeB.spawnProcess("reader");
    mem::Vaddr sbase = reader.space().allocRegion(4096);
    auto sc = c.engineB.exportSegment(reader, sbase, 256,
                                      rmem::Rights::kRead,
                                      rmem::NotifyPolicy::kNever,
                                      "scratch");
    ASSERT_TRUE(sc.ok());

    // Buggy publish: flag first, body second.
    ASSERT_TRUE(owner.space().writeWord(base, 1).ok());
    std::vector<uint8_t> body(28, 0x5a);
    ASSERT_TRUE(owner.space().write(base + 4, body).ok());

    // Remote probe reads flag + body in one record-atomic read.
    auto t = c.engineB.read(h.value(), 0, sc.value().descriptor, 0, 32);
    auto out = runToCompletion(c.sim, t);
    EXPECT_TRUE(out.status.ok());

    ASSERT_FALSE(det.reports().empty());
    const auto &r = det.reports()[0];
    EXPECT_EQ(r.segmentName, "registry");
    EXPECT_GE(r.lo, 4u); // the flag word itself is exempt...
    EXPECT_LE(r.hi, 32u); // ...the body bytes are what race
    EXPECT_TRUE(r.prior.write);
    EXPECT_FALSE(r.current.write);
    EXPECT_EQ(r.current.site, "rmem serve_read from node 2");
}

/** The correct order — body, then flag — probes clean. */
TEST(RaceDetectorCluster, BodyFirstPublishIsClean)
{
    Armed armed;
    TwoNodeCluster c;
    mem::Process &owner = c.nodeA.spawnProcess("registry");
    mem::Vaddr base = owner.space().allocRegion(4096);
    auto h = c.engineA.exportSegment(owner, base, 128, rmem::Rights::kRead,
                                     rmem::NotifyPolicy::kNever,
                                     "registry");
    ASSERT_TRUE(h.ok());
    auto &det = RaceDetector::instance();
    det.markSyncWord(1, h.value().descriptor, 0);

    mem::Process &reader = c.nodeB.spawnProcess("reader");
    mem::Vaddr sbase = reader.space().allocRegion(4096);
    auto sc = c.engineB.exportSegment(reader, sbase, 256,
                                      rmem::Rights::kRead,
                                      rmem::NotifyPolicy::kNever,
                                      "scratch");
    ASSERT_TRUE(sc.ok());

    std::vector<uint8_t> body(28, 0x5a);
    ASSERT_TRUE(owner.space().write(base + 4, body).ok());
    ASSERT_TRUE(owner.space().writeWord(base, 1).ok()); // release

    auto t = c.engineB.read(h.value(), 0, sc.value().descriptor, 0, 32);
    auto out = runToCompletion(c.sim, t);
    EXPECT_TRUE(out.status.ok());
    EXPECT_EQ(det.raceCount(), 0u)
        << (det.reports().empty() ? std::string()
                                  : det.reports()[0].format());
}

} // namespace
} // namespace remora
