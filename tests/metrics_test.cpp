// Tests for hcq::metrics — running stats, percentiles, histograms, BER, and
// the fixed-memory latency_digest quantile sketch (pinned against the exact
// percentile implementation it replaces in streaming aggregation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "metrics/ber.h"
#include "metrics/digest.h"
#include "metrics/histogram.h"
#include "metrics/stats.h"
#include "util/rng.h"

namespace {

namespace mt = hcq::metrics;

TEST(RunningStats, MeanVarianceMinMax) {
    mt::running_stats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, DegenerateCases) {
    mt::running_stats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
    const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(mt::percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(mt::percentile(v, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(mt::percentile(v, 50.0), 25.0);
    EXPECT_DOUBLE_EQ(mt::median(v), 25.0);
    EXPECT_DOUBLE_EQ(mt::percentile({7.0}, 30.0), 7.0);
}

TEST(Percentile, OrderIndependentAndValidated) {
    EXPECT_DOUBLE_EQ(mt::percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
    EXPECT_THROW((void)mt::percentile({}, 50.0), std::invalid_argument);
    EXPECT_THROW((void)mt::percentile({1.0}, -1.0), std::invalid_argument);
    EXPECT_THROW((void)mt::percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Histogram, BinsAndOverflow) {
    mt::histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.num_bins(), 5u);
    EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
    h.add(0.0);   // bin 0
    h.add(1.99);  // bin 0
    h.add(2.0);   // bin 1
    h.add(9.99);  // bin 4
    h.add(10.0);  // overflow
    h.add(42.0);  // overflow
    h.add(-3.0);  // clamps to bin 0
    EXPECT_EQ(h.count(0), 3u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(4), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, FractionsAndCdf) {
    mt::histogram h(0.0, 4.0, 4);
    for (const double x : {0.5, 1.5, 1.6, 2.5, 3.5, 3.6, 3.7, 9.0}) h.add(x);
    EXPECT_DOUBLE_EQ(h.fraction(0), 1.0 / 8.0);
    EXPECT_DOUBLE_EQ(h.fraction(1), 2.0 / 8.0);
    EXPECT_DOUBLE_EQ(h.cumulative_fraction(1), 3.0 / 8.0);
    EXPECT_DOUBLE_EQ(h.cumulative_fraction(3), 7.0 / 8.0);
    EXPECT_DOUBLE_EQ(h.cumulative_fraction(4), 1.0);  // incl. overflow
}

TEST(Histogram, BinGeometry) {
    mt::histogram h(-1.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(h.bin_lower(0), -1.0);
    EXPECT_DOUBLE_EQ(h.bin_center(0), -0.75);
    EXPECT_DOUBLE_EQ(h.bin_lower(3), 0.5);
    EXPECT_EQ(h.bin_index(-0.999), 0u);
    EXPECT_EQ(h.bin_index(0.999), 3u);
    EXPECT_EQ(h.bin_index(1.0), 4u);  // overflow index
}

TEST(Histogram, Validation) {
    EXPECT_THROW(mt::histogram(1.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW(mt::histogram(0.0, 1.0, 0), std::invalid_argument);
    mt::histogram h(0.0, 1.0, 2);
    EXPECT_THROW((void)h.count(5), std::out_of_range);
    EXPECT_THROW((void)h.bin_lower(5), std::out_of_range);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);  // empty histogram
}

TEST(Ber, CountsErrors) {
    const std::vector<std::uint8_t> a{0, 1, 0, 1};
    const std::vector<std::uint8_t> b{0, 1, 1, 0};
    EXPECT_EQ(mt::bit_errors(a, b), 2u);
    EXPECT_EQ(mt::bit_errors(a, a), 0u);
    const std::vector<std::uint8_t> c{0};
    EXPECT_THROW((void)mt::bit_errors(a, c), std::invalid_argument);
}

TEST(Ber, CounterAccumulates) {
    mt::ber_counter counter;
    EXPECT_DOUBLE_EQ(counter.rate(), 0.0);
    const std::vector<std::uint8_t> ref{0, 0, 0, 0};
    const std::vector<std::uint8_t> det{0, 1, 0, 0};
    counter.add_frame(ref, det);
    counter.add_frame(ref, ref);
    EXPECT_EQ(counter.errors(), 1u);
    EXPECT_EQ(counter.total_bits(), 8u);
    EXPECT_DOUBLE_EQ(counter.rate(), 0.125);
}

TEST(LatencyDigest, EmptyAndSingleSampleAreExact) {
    mt::latency_digest d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.quantile(50.0), 0.0);
    d.add(42.5);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.mean(), 42.5);
    // Clamping into [min, max] makes every quantile of a single-sample (or
    // all-equal) stream exact.
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 42.5);
    EXPECT_DOUBLE_EQ(d.p50(), 42.5);
    EXPECT_DOUBLE_EQ(d.p99(), 42.5);
    EXPECT_DOUBLE_EQ(d.min(), 42.5);
    EXPECT_DOUBLE_EQ(d.max(), 42.5);
}

TEST(LatencyDigest, TracksExactPercentilesWithinBinResolution) {
    // The streaming-aggregation regression: the digest's p50/p99 must land
    // within its documented ~0.4% relative error of metrics::percentile
    // (the exact per-cell implementation it replaces) on latency-shaped
    // data spanning several orders of magnitude.
    hcq::util::rng rng(99);
    mt::latency_digest d;
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i) {
        const double v = std::exp(rng.normal(std::log(50.0), 1.5));  // heavy tail
        values.push_back(v);
        d.add(v);
    }
    for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9}) {
        SCOPED_TRACE(p);
        const double exact = mt::percentile(values, p);
        EXPECT_NEAR(d.quantile(p), exact, 0.01 * exact);
    }
    EXPECT_DOUBLE_EQ(d.min(), *std::min_element(values.begin(), values.end()));
    EXPECT_DOUBLE_EQ(d.max(), *std::max_element(values.begin(), values.end()));
}

TEST(LatencyDigest, QuantileRankIsExactAtIntegerRanks) {
    // p99.9 of 20,000 samples is the 19,980th; the floating-point product
    // 99.9 / 100 * 20000 lands a hair above 19980 and must not round the
    // rank up into the tail.
    mt::latency_digest d;
    for (int i = 0; i < 19980; ++i) d.add(1.0);
    for (int i = 0; i < 20; ++i) d.add(100.0);
    EXPECT_NEAR(d.quantile(99.9), 1.0, 0.01);
    EXPECT_NEAR(d.quantile(99.95), 100.0, 1.0);  // rank 19,990 is in the tail
}

TEST(LatencyDigest, QuantilesAreMonotoneAndClamped) {
    mt::latency_digest d;
    for (const double v : {1.0, 10.0, 100.0, 1000.0}) d.add(v);
    double prev = 0.0;
    for (const double p : {0.0, 10.0, 50.0, 90.0, 100.0}) {
        const double q = d.quantile(p);
        EXPECT_GE(q, prev);
        EXPECT_GE(q, d.min());
        EXPECT_LE(q, d.max());
        prev = q;
    }
}

TEST(LatencyDigest, OutOfRangeSamplesLandInUnderOverflowBuckets) {
    mt::latency_digest d(1.0, 100.0, 16);
    d.add(0.0);     // below lo: underflow bucket
    d.add(0.5);     // below lo
    d.add(1e6);     // above hi: overflow bucket
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);   // extrema stay exact
    EXPECT_DOUBLE_EQ(d.max(), 1e6);
    // Low quantiles clamp to min, high ones to max.
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.quantile(100.0), 1e6);
}

TEST(LatencyDigest, MergeEqualsConcatenation) {
    mt::latency_digest a;
    mt::latency_digest b;
    mt::latency_digest both;
    hcq::util::rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const double v = 1.0 + 50.0 * rng.uniform();
        ((i % 2 == 0) ? a : b).add(v);
        both.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_DOUBLE_EQ(a.min(), both.min());
    EXPECT_DOUBLE_EQ(a.max(), both.max());
    EXPECT_NEAR(a.mean(), both.mean(), 1e-9);
    for (const double p : {10.0, 50.0, 99.0}) {
        EXPECT_DOUBLE_EQ(a.quantile(p), both.quantile(p));
    }
    mt::latency_digest other_geometry(1.0, 10.0, 4);
    EXPECT_THROW(a.merge(other_geometry), std::invalid_argument);
}

TEST(LatencyDigest, Validation) {
    EXPECT_THROW((void)mt::latency_digest(0.0, 1.0, 8), std::invalid_argument);
    EXPECT_THROW((void)mt::latency_digest(2.0, 1.0, 8), std::invalid_argument);
    EXPECT_THROW((void)mt::latency_digest(1.0, 2.0, 0), std::invalid_argument);
    mt::latency_digest d;
    EXPECT_THROW(d.add(-1.0), std::invalid_argument);
    EXPECT_THROW((void)d.quantile(101.0), std::invalid_argument);
    EXPECT_THROW((void)d.quantile(-1.0), std::invalid_argument);
}

}  // namespace
