#include "metrics/digest.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hcq::metrics {
namespace {

constexpr double default_lo_us = 1e-3;  // 1 ns
constexpr double default_hi_us = 1e9;   // 1000 s
constexpr std::size_t default_bins = 4096;

}  // namespace

latency_digest::latency_digest() : latency_digest(default_lo_us, default_hi_us, default_bins) {}

latency_digest::latency_digest(double lo, double hi, std::size_t num_bins) : lo_(lo), hi_(hi) {
    if (!(lo > 0.0) || !(hi > lo) || !std::isfinite(lo) || !std::isfinite(hi) || num_bins == 0) {
        throw std::invalid_argument("latency_digest: need 0 < lo < hi (finite) and >= 1 bin");
    }
    inv_log_ratio_ = static_cast<double>(num_bins) / std::log(hi_ / lo_);
    counts_.assign(num_bins + 2, 0);
}

std::size_t latency_digest::bin_index(double value) const {
    if (value < lo_) return 0;
    if (value >= hi_) return counts_.size() - 1;
    const auto bin = static_cast<std::size_t>(std::log(value / lo_) * inv_log_ratio_);
    return std::min(bin, num_bins() - 1) + 1;  // clamp rounding at the top edge
}

double latency_digest::bin_center(std::size_t bin) const {
    // The out-of-range buckets report the exact tracked extrema — there is
    // no better single representative for samples outside [lo, hi).
    if (bin == 0) return min_;
    if (bin == counts_.size() - 1) return max_;
    // Geometric centre of [lo * r^(bin-1), lo * r^bin).
    return lo_ * std::exp((static_cast<double>(bin - 1) + 0.5) / inv_log_ratio_);
}

void latency_digest::add(double value) {
    if (value < 0.0 || !std::isfinite(value)) {
        throw std::invalid_argument("latency_digest: sample must be non-negative and finite");
    }
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    ++counts_[bin_index(value)];
}

void latency_digest::merge(const latency_digest& other) {
    if (lo_ != other.lo_ || hi_ != other.hi_ || counts_.size() != other.counts_.size()) {
        throw std::invalid_argument("latency_digest: merge requires identical geometry");
    }
    if (other.count_ == 0) return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
}

double latency_digest::mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double latency_digest::min() const noexcept { return count_ == 0 ? 0.0 : min_; }

double latency_digest::max() const noexcept { return count_ == 0 ? 0.0 : max_; }

double latency_digest::quantile(double p) const {
    if (p < 0.0 || p > 100.0 || !std::isfinite(p)) {
        throw std::invalid_argument("latency_digest: quantile p must be in [0, 100]");
    }
    if (count_ == 0) return 0.0;
    // Rank of the sample we are after, 1-based: p=0 -> 1st, p=100 -> count-th.
    // The product carries a few ulps of rounding (99.9 / 100 * 20000 is
    // 19980.000000000004), so one that close to an integer is that integer:
    // the ceiling must not step past an exact rank.
    const double exact = p / 100.0 * static_cast<double>(count_);
    const double nearest = std::round(exact);
    const double target =
        std::fabs(exact - nearest) <= 1e-12 * nearest ? nearest : std::ceil(exact);
    const auto rank = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(target));
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        cumulative += counts_[b];
        if (cumulative >= rank) return std::clamp(bin_center(b), min_, max_);
    }
    return max_;  // unreachable: cumulative == count_ >= rank by construction
}

}  // namespace hcq::metrics
