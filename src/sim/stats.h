/**
 * @file
 * Statistics collection: counters, accumulators, histograms.
 *
 * Components own their stats objects and register them with
 * obs::MetricRegistry for uniform dumping. The benches print their own
 * tables, but tests and examples use the registry to inspect simulation
 * state.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace remora::sim {

/** Monotonically increasing event counter. */
class Counter
{
  public:
    /** Add @p n to the counter. */
    void inc(uint64_t n = 1) { value_ += n; }

    /** Current value. */
    uint64_t value() const { return value_; }

    /** Reset to zero. */
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/** Streaming min/max/mean/variance accumulator (Welford). */
class Accumulator
{
  public:
    /** Record one observation. */
    void sample(double x);

    /** Number of observations. */
    uint64_t count() const { return count_; }

    /** Sum of observations. */
    double sum() const { return sum_; }

    /** Minimum observation (+inf when empty). */
    double min() const { return min_; }

    /** Maximum observation (-inf when empty). */
    double max() const { return max_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Sample variance (0 for fewer than two observations). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Forget all observations. */
    void reset() { *this = Accumulator(); }

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-width linear histogram with under/overflow buckets.
 *
 * Bucket i covers [lo + i*width, lo + (i+1)*width).
 */
class Histogram
{
  public:
    /**
     * @param lo Lower bound of the first regular bucket.
     * @param width Width of each regular bucket (> 0).
     * @param buckets Number of regular buckets (> 0).
     */
    Histogram(double lo, double width, size_t buckets);

    /**
     * Record one observation. NaN observations are rejected (counted in
     * nanSamples(), excluded from total()); infinities land in the
     * under/overflow buckets.
     */
    void sample(double x);

    /** Count in regular bucket @p i. */
    uint64_t bucketCount(size_t i) const { return counts_.at(i); }

    /** Inclusive lower edge of regular bucket @p i. */
    double bucketLo(size_t i) const { return lo_ + width_ * static_cast<double>(i); }

    /** Observations below the first bucket. */
    uint64_t underflow() const { return underflow_; }

    /** Observations at/above the last bucket's upper edge. */
    uint64_t overflow() const { return overflow_; }

    /** Observations outside the regular buckets (under + over). */
    uint64_t outOfRange() const { return underflow_ + overflow_; }

    /** NaN observations rejected by sample(). */
    uint64_t nanSamples() const { return nan_; }

    /** Total (non-NaN) observations. */
    uint64_t total() const { return total_; }

    /** Smallest observation (0 when empty). */
    double observedMin() const { return total_ ? min_ : 0.0; }

    /** Largest observation (0 when empty). */
    double observedMax() const { return total_ ? max_ : 0.0; }

    /** Number of regular buckets. */
    size_t buckets() const { return counts_.size(); }

    /**
     * Value at or below which fraction @p q of observations fall,
     * interpolated within buckets. The tails use the observed extremes:
     * quantiles landing in the underflow region return observedMin(),
     * and those in the overflow region interpolate between the top
     * bucket edge and observedMax(), so p99.9 stays meaningful even
     * when the tail escapes the bucketed range. Requires 0 <= q <= 1
     * and total() > 0.
     */
    double quantile(double q) const;

    /** Forget all observations. */
    void reset();

  private:
    double lo_;
    double width_;
    std::vector<uint64_t> counts_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t nan_ = 0;
    uint64_t total_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace remora::sim
