#include "sim/random.h"

#include <algorithm>
#include <cmath>

#include "util/panic.h"

namespace remora::sim {

Random::Random(uint64_t seed)
    : state_(0), inc_((0xda3e39cb94b95bdbull << 1) | 1)
{
    nextU32();
    state_ += seed;
    nextU32();
}

uint32_t
Random::nextU32()
{
    uint64_t old = state_;
    state_ = old * 6364136223846793005ull + inc_;
    uint32_t xorshifted = static_cast<uint32_t>(((old >> 18) ^ old) >> 27);
    uint32_t rot = static_cast<uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

uint64_t
Random::nextU64()
{
    return (static_cast<uint64_t>(nextU32()) << 32) | nextU32();
}

uint32_t
Random::uniformInt(uint32_t bound)
{
    REMORA_ASSERT(bound > 0);
    // Lemire-style rejection to remove modulo bias.
    uint32_t threshold = (0u - bound) % bound;
    for (;;) {
        uint32_t r = nextU32();
        if (r >= threshold) {
            return r % bound;
        }
    }
}

double
Random::uniformReal()
{
    // 53 random bits into [0,1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

bool
Random::bernoulli(double p)
{
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return uniformReal() < p;
}

Random::Zipf::Zipf(size_t n, double s)
{
    REMORA_ASSERT(n > 0);
    cdf_.resize(n);
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = acc;
    }
    for (double &v : cdf_) {
        v /= acc;
    }
}

size_t
Random::Zipf::sample(Random &rng) const
{
    double u = rng.uniformReal();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) {
        return cdf_.size() - 1;
    }
    return static_cast<size_t>(it - cdf_.begin());
}

Random::Discrete::Discrete(const std::vector<double> &weights)
{
    REMORA_ASSERT(!weights.empty());
    cdf_.resize(weights.size());
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        REMORA_ASSERT(weights[i] >= 0.0);
        acc += weights[i];
        cdf_[i] = acc;
    }
    REMORA_ASSERT(acc > 0.0);
    for (double &v : cdf_) {
        v /= acc;
    }
}

size_t
Random::Discrete::sample(Random &rng) const
{
    double u = rng.uniformReal();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) {
        return cdf_.size() - 1;
    }
    return static_cast<size_t>(it - cdf_.begin());
}

} // namespace remora::sim
