#include "util/rng.h"

#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

namespace hcq::util {

namespace {

/// SplitMix64 step; used to decorrelate derived stream seeds.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// Philox4x32 constants (Salmon et al., SC'11): round multipliers and the
// Weyl key bumps (golden ratio, sqrt(3) - 1).
constexpr std::uint32_t philox_m0 = 0xD2511F53U;
constexpr std::uint32_t philox_m1 = 0xCD9E8D57U;
constexpr std::uint32_t philox_w0 = 0x9E3779B9U;
constexpr std::uint32_t philox_w1 = 0xBB67AE85U;

}  // namespace

rng rng::derive(std::uint64_t stream_id) const noexcept {
    return rng(splitmix64(seed_ ^ splitmix64(stream_id + 1)));
}

rng::result_type rng::next_block() noexcept {
    auto k0 = static_cast<std::uint32_t>(seed_);
    auto k1 = static_cast<std::uint32_t>(seed_ >> 32);
    auto c0 = static_cast<std::uint32_t>(block_);
    auto c1 = static_cast<std::uint32_t>(block_ >> 32);
    std::uint32_t c2 = 0;
    std::uint32_t c3 = 0;
    ++block_;
    for (int round = 0; round < 10; ++round) {
        if (round > 0) {
            k0 += philox_w0;
            k1 += philox_w1;
        }
        const std::uint64_t p0 = std::uint64_t{philox_m0} * c0;
        const std::uint64_t p1 = std::uint64_t{philox_m1} * c2;
        c0 = static_cast<std::uint32_t>(p1 >> 32) ^ c1 ^ k0;
        c1 = static_cast<std::uint32_t>(p1);
        c2 = static_cast<std::uint32_t>(p0 >> 32) ^ c3 ^ k1;
        c3 = static_cast<std::uint32_t>(p0);
    }
    spare_ = c2 | (std::uint64_t{c3} << 32);
    has_spare_ = true;
    return c0 | (std::uint64_t{c1} << 32);
}

double rng::uniform(double lo, double hi) {
    if (!(lo <= hi)) throw std::invalid_argument("rng::uniform: lo > hi");
    return lo + (hi - lo) * uniform();
}

std::size_t rng::uniform_index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("rng::uniform_index: n == 0");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(*this);
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("rng::uniform_int: lo > hi");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(*this);
}

double rng::normal() noexcept {
    if (has_spare_normal_) {
        has_spare_normal_ = false;
        return spare_normal_;
    }
    // Marsaglia's polar method: a point uniform in the unit disc (less the
    // origin) yields two independent standard normals.
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
        u = 2.0 * uniform() - 1.0;
        v = 2.0 * uniform() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(s) / s);
    spare_normal_ = v * scale;
    has_spare_normal_ = true;
    return u * scale;
}

double rng::normal(double mean, double stddev) {
    if (stddev < 0.0) throw std::invalid_argument("rng::normal: stddev < 0");
    return normal() * stddev + mean;
}

bool rng::bernoulli(double p) {
    if (p < 0.0 || p > 1.0) throw std::invalid_argument("rng::bernoulli: p outside [0,1]");
    return uniform() < p;
}

double rng::angle() {
    return uniform(0.0, 2.0 * std::numbers::pi);
}

std::vector<std::uint8_t> rng::bits(std::size_t n) {
    std::vector<std::uint8_t> out;
    bits_into(n, out);
    return out;
}

void rng::bits_into(std::size_t n, std::vector<std::uint8_t>& out) {
    out.resize(n);
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 64 == 0) word = (*this)();
        out[i] = static_cast<std::uint8_t>(word & 1U);
        word >>= 1;
    }
}

}  // namespace hcq::util
