#include "sim/stats.h"

#include <algorithm>
#include <cmath>

#include "util/panic.h"

namespace remora::sim {

void
Accumulator::sample(double x)
{
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
Accumulator::variance() const
{
    if (count_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_ - 1);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double width, size_t buckets)
    : lo_(lo), width_(width), counts_(buckets, 0)
{
    REMORA_ASSERT(width > 0.0);
    REMORA_ASSERT(buckets > 0);
}

void
Histogram::sample(double x)
{
    if (std::isnan(x)) {
        ++nan_; // would make the bucket index UB; reject and count
        return;
    }
    ++total_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    if (x < lo_) {
        ++underflow_;
        return;
    }
    double idx = (x - lo_) / width_;
    if (idx >= static_cast<double>(counts_.size())) {
        ++overflow_;
        return;
    }
    ++counts_[static_cast<size_t>(idx)];
}

double
Histogram::quantile(double q) const
{
    REMORA_ASSERT(q >= 0.0 && q <= 1.0);
    REMORA_ASSERT(total_ > 0);
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total_));
    uint64_t seen = underflow_;
    if (seen > target) {
        return min_; // in the underflow region: the observed floor
    }
    for (size_t i = 0; i < counts_.size(); ++i) {
        if (seen + counts_[i] > target) {
            // Linear interpolation within the bucket.
            double frac = counts_[i]
                ? static_cast<double>(target - seen) /
                      static_cast<double>(counts_[i])
                : 0.0;
            return bucketLo(i) + frac * width_;
        }
        seen += counts_[i];
    }
    // In the overflow region: interpolate from the top bucket edge out
    // to the largest observation, so tail quantiles keep moving when
    // the tail escapes the bucketed range.
    double top = lo_ + width_ * static_cast<double>(counts_.size());
    if (overflow_ == 0) {
        return std::min(max_, top);
    }
    double frac = static_cast<double>(target - seen) /
                  static_cast<double>(overflow_);
    return top + frac * std::max(0.0, max_ - top);
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), uint64_t{0});
    underflow_ = overflow_ = nan_ = total_ = 0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

} // namespace remora::sim
