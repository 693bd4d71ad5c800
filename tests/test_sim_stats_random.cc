/**
 * @file
 * Unit tests for the statistics framework and the deterministic RNG.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "sim/random.h"
#include "sim/stats.h"

namespace remora::sim {
namespace {

// ----------------------------------------------------------------------
// Stats
// ----------------------------------------------------------------------

TEST(Counter, IncrementsAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, MomentsAreExact)
{
    Accumulator a;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        a.sample(x);
    }
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.sum(), 40.0);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    // Population variance is 4; sample variance = 32/7.
    EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(a.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, EmptyAndSingleSampleEdgeCases)
{
    Accumulator a;
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.variance(), 0.0);
    a.sample(3.5);
    EXPECT_EQ(a.mean(), 3.5);
    EXPECT_EQ(a.variance(), 0.0);
}

TEST(Histogram, BucketsAndBounds)
{
    Histogram h(0.0, 10.0, 5); // [0,50) in 5 buckets
    h.sample(-1.0);            // underflow
    h.sample(0.0);             // bucket 0
    h.sample(9.999);           // bucket 0
    h.sample(10.0);            // bucket 1
    h.sample(49.0);            // bucket 4
    h.sample(50.0);            // overflow
    h.sample(1000.0);          // overflow
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, QuantileInterpolates)
{
    Histogram h(0.0, 1.0, 100);
    for (int i = 0; i < 100; ++i) {
        h.sample(i + 0.5);
    }
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.0);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h(0.0, 1.0, 4);
    h.sample(2.0);
    h.sample(-5.0);
    h.sample(std::nan(""));
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.nanSamples(), 0u);
    EXPECT_EQ(h.observedMin(), 0.0);
    EXPECT_EQ(h.observedMax(), 0.0);
}

TEST(Histogram, NanIsRejectedAndCounted)
{
    Histogram h(0.0, 1.0, 4);
    h.sample(1.5);
    h.sample(std::nan(""));
    EXPECT_EQ(h.total(), 1u); // the NaN never entered a bucket
    EXPECT_EQ(h.nanSamples(), 1u);
    EXPECT_EQ(h.outOfRange(), 0u);
}

TEST(Histogram, OutOfRangeCountsBothTails)
{
    Histogram h(10.0, 1.0, 5); // [10,15)
    h.sample(-2.5);
    h.sample(-1.0);
    h.sample(12.0);
    h.sample(99.0);
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.outOfRange(), 3u);
    EXPECT_EQ(h.observedMin(), -2.5);
    EXPECT_EQ(h.observedMax(), 99.0);
    // A quantile landing in the underflow region reports the observed
    // floor, not the bucket range's lower edge.
    EXPECT_EQ(h.quantile(0.0), -2.5);
}

TEST(Histogram, TailQuantilesInterpolateIntoOverflow)
{
    // 90 fast observations in range, 10 slow ones past the top edge:
    // the p99/p100 must keep moving with the escaped tail instead of
    // saturating at the top bucket boundary.
    Histogram h(0.0, 1.0, 10); // [0,10)
    for (int i = 0; i < 90; ++i) {
        h.sample(0.5);
    }
    for (int i = 0; i < 10; ++i) {
        h.sample(15.0);
    }
    // target 99: 9/10 of the way through the overflow region, between
    // the top edge (10) and the observed max (15).
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 14.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 15.0);
    // With no overflow, q=1.0 clamps to the observed max.
    Histogram g(0.0, 1.0, 10);
    g.sample(3.25);
    EXPECT_DOUBLE_EQ(g.quantile(1.0), 3.25);
}

// ----------------------------------------------------------------------
// Random
// ----------------------------------------------------------------------

TEST(Random, DeterministicAcrossInstances)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.nextU32(), b.nextU32());
    }
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.nextU32() == b.nextU32()) {
            ++same;
        }
    }
    EXPECT_LT(same, 3);
}

class UniformIntBounds : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(UniformIntBounds, StaysInRangeAndCoversIt)
{
    uint32_t bound = GetParam();
    Random rng(99);
    std::vector<bool> seen(bound, false);
    for (int i = 0; i < 2000; ++i) {
        uint32_t v = rng.uniformInt(bound);
        ASSERT_LT(v, bound);
        seen[v] = true;
    }
    if (bound <= 16) {
        for (uint32_t v = 0; v < bound; ++v) {
            EXPECT_TRUE(seen[v]) << "value " << v << " never drawn";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Bounds, UniformIntBounds,
                         ::testing::Values(1, 2, 3, 7, 16, 1000));

TEST(Random, UniformRealInHalfOpenUnit)
{
    Random rng(17);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, BernoulliFrequency)
{
    Random rng(31);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) {
        hits += rng.bernoulli(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Random, ZipfSkewsTowardLowRanks)
{
    Random rng(41);
    Random::Zipf zipf(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; ++i) {
        size_t r = zipf.sample(rng);
        ASSERT_LT(r, 100u);
        ++counts[r];
    }
    // Rank 0 must dominate rank 50 heavily under s=1.
    EXPECT_GT(counts[0], counts[50] * 10);
    // Monotone-ish head.
    EXPECT_GT(counts[0], counts[5]);
}

TEST(Random, DiscreteFollowsWeights)
{
    Random rng(53);
    Random::Discrete dist({1.0, 0.0, 3.0});
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 20000; ++i) {
        ++counts[dist.sample(rng)];
    }
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

} // namespace
} // namespace remora::sim
