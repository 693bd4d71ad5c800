/**
 * @file
 * Deterministic pseudo-randomness for workload generation.
 *
 * PCG32 keeps runs reproducible across platforms (std:: distributions
 * are implementation-defined, so we implement the few we need).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace remora::sim {

/** PCG32 (Melissa O'Neill's pcg32_random_r), deterministic everywhere. */
class Random
{
  public:
    /** Seeded generator; the same seed yields the same stream. */
    explicit Random(uint64_t seed = 0x853c49e6748fea9bull);

    /** Next raw 32-bit value. */
    uint32_t nextU32();

    /** Next raw 64-bit value. */
    uint64_t nextU64();

    /** Uniform integer in [0, bound), bound > 0, unbiased. */
    uint32_t uniformInt(uint32_t bound);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** True with probability @p p (clamped to [0,1]). */
    bool bernoulli(double p);

    /**
     * Zipf-distributed rank in [0, n) with exponent @p s, drawn by
     * inverse-CDF over precomputed weights.
     */
    class Zipf
    {
      public:
        /**
         * @param n Number of ranks (> 0).
         * @param s Skew exponent (s = 0 is uniform; ~0.8-1.2 typical).
         */
        Zipf(size_t n, double s);

        /** Draw a rank using @p rng. */
        size_t sample(Random &rng) const;

      private:
        std::vector<double> cdf_;
    };

    /**
     * Draw an index from an arbitrary discrete weight vector
     * (weights need not be normalized; all >= 0, sum > 0).
     */
    class Discrete
    {
      public:
        /** Build the sampler from @p weights. */
        explicit Discrete(const std::vector<double> &weights);

        /** Draw an index using @p rng. */
        size_t sample(Random &rng) const;

      private:
        std::vector<double> cdf_;
    };

  private:
    uint64_t state_;
    uint64_t inc_;
};

} // namespace remora::sim
