#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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
constexpr int philox_rounds = 10;

/// The two draws of one block.
struct block_draws {
    std::uint64_t first;
    std::uint64_t second;
};

/// The scalar Philox4x32-10 block: counter `block` under `key`.
block_draws philox_block(std::uint64_t key, std::uint64_t block) noexcept {
    auto k0 = static_cast<std::uint32_t>(key);
    auto k1 = static_cast<std::uint32_t>(key >> 32);
    auto c0 = static_cast<std::uint32_t>(block);
    auto c1 = static_cast<std::uint32_t>(block >> 32);
    std::uint32_t c2 = 0;
    std::uint32_t c3 = 0;
    for (int round = 0; round < philox_rounds; ++round) {
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
    return {c0 | (std::uint64_t{c1} << 32), c2 | (std::uint64_t{c3} << 32)};
}

}  // namespace

namespace philox {

std::uint64_t draws_scalar(std::uint64_t key, std::uint64_t block,
                           std::span<std::uint64_t> out) noexcept {
    std::size_t i = 0;
    for (; i + 1 < out.size(); i += 2) {
        const block_draws d = philox_block(key, block++);
        out[i] = d.first;
        out[i + 1] = d.second;
    }
    if (i == out.size()) return 0;
    const block_draws d = philox_block(key, block);
    out[i] = d.first;
    return d.second;
}

#if defined(__x86_64__)

bool avx2_supported() noexcept {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
}

// Each 64-bit lane carries one block's 32-bit words in its low half:
// _mm256_mul_epu32 reads only the low halves, so the high halves may hold
// junk until the draws are assembled.  The lanes add the block index in 64
// bits, so a counter crossing 2^32 carries into its high word per lane.
__attribute__((target("avx2"))) std::uint64_t draws_avx2(std::uint64_t key, std::uint64_t block,
                                                         std::span<std::uint64_t> out) noexcept {
    const __m256i m0 = _mm256_set1_epi64x(philox_m0);
    const __m256i m1 = _mm256_set1_epi64x(philox_m1);
    const __m256i low = _mm256_set1_epi64x(0xFFFFFFFFLL);
    const __m256i lanes = _mm256_set_epi64x(3, 2, 1, 0);
    __m256i k0[philox_rounds]{};
    __m256i k1[philox_rounds]{};
    auto a = static_cast<std::uint32_t>(key);
    auto b = static_cast<std::uint32_t>(key >> 32);
    for (int round = 0; round < philox_rounds; ++round) {
        k0[round] = _mm256_set1_epi64x(a);
        k1[round] = _mm256_set1_epi64x(b);
        a += philox_w0;
        b += philox_w1;
    }
    for (std::size_t done = 0; done < out.size(); done += 8, block += 4) {
        const __m256i counter =
            _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(block)), lanes);
        __m256i c0 = _mm256_and_si256(counter, low);
        __m256i c1 = _mm256_srli_epi64(counter, 32);
        __m256i c2 = _mm256_setzero_si256();
        __m256i c3 = _mm256_setzero_si256();
        for (int round = 0; round < philox_rounds; ++round) {
            const __m256i p0 = _mm256_mul_epu32(c0, m0);
            const __m256i p1 = _mm256_mul_epu32(c2, m1);
            c0 = _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p1, 32), c1), k0[round]);
            c1 = p1;
            c2 = _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p0, 32), c3), k1[round]);
            c3 = p0;
        }
        // Lane j holds block j's first draw in d0 and its second in d1; the
        // unpacks and cross-lane permutes put the eight in draw order.
        const __m256i d0 = _mm256_or_si256(_mm256_and_si256(c0, low), _mm256_slli_epi64(c1, 32));
        const __m256i d1 = _mm256_or_si256(_mm256_and_si256(c2, low), _mm256_slli_epi64(c3, 32));
        const __m256i even = _mm256_unpacklo_epi64(d0, d1);  // blocks 0 and 2
        const __m256i odd = _mm256_unpackhi_epi64(d0, d1);   // blocks 1 and 3
        alignas(32) std::uint64_t step[8]{};
        _mm256_store_si256(reinterpret_cast<__m256i*>(step),
                           _mm256_permute2x128_si256(even, odd, 0x20));
        _mm256_store_si256(reinterpret_cast<__m256i*>(step + 4),
                           _mm256_permute2x128_si256(even, odd, 0x31));
        const std::size_t take = std::min<std::size_t>(8, out.size() - done);
        std::copy_n(step, take, out.data() + done);
        if (take % 2 != 0) return step[take];
    }
    return 0;
}

#else

bool avx2_supported() noexcept { return false; }

std::uint64_t draws_avx2(std::uint64_t key, std::uint64_t block,
                         std::span<std::uint64_t> out) noexcept {
    return draws_scalar(key, block, out);
}

#endif

}  // namespace philox

rng rng::derive(std::uint64_t stream_id) const noexcept {
    return rng(splitmix64(seed_ ^ splitmix64(stream_id + 1)));
}

rng::result_type rng::next_block() noexcept {
    const block_draws d = philox_block(seed_, block_++);
    spare_ = d.second;
    has_spare_ = true;
    return d.first;
}

void rng::fill(std::span<result_type> out) noexcept {
    if (has_spare_ && !out.empty()) {
        has_spare_ = false;
        out.front() = spare_;
        out = out.subspan(1);
    }
    if (out.empty()) return;
    static const auto kernel =
        philox::avx2_supported() ? philox::draws_avx2 : philox::draws_scalar;
    spare_ = kernel(seed_, block_, out);
    block_ += (out.size() + 1) / 2;
    has_spare_ = out.size() % 2 != 0;
}

void rng::discard(std::uint64_t n) noexcept {
    if (n == 0) return;
    if (has_spare_) {
        has_spare_ = false;
        --n;
    }
    block_ += n / 2;
    if (n % 2 != 0) (void)next_block();
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
