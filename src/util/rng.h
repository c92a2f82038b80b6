// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the library draws from an hcq::util::rng that
// the caller seeds explicitly; there is no hidden global generator.  Derived
// streams (`derive`) give statistically independent generators for parallel
// workers while keeping a single master seed per experiment.
//
// Engine: Philox4x32-10, the counter-based generator of Salmon et al.,
// "Parallel random numbers: as easy as 1, 2, 3" (SC'11).  A stream is a key
// plus a counter, so creating one costs a hash and a store:
//   * key (k0, k1) = (low, high) 32-bit halves of seed();
//   * counter = (low, high, 0, 0) halves of a 64-bit block index from 0;
//   * ten rounds, multipliers 0xD2511F53 / 0xCD9E8D57, key bumps
//     0x9E3779B9 / 0xBB67AE85;
//   * block (c0, c1, c2, c3) yields two draws, c0 | c1 << 32 then
//     c2 | c3 << 32.
// derive(id) maps (seed, id) to a new seed with splitmix64; nothing else is
// carried over, so every derived seed — and serve::request_seed — is a pure
// function of the derivation path.
//
// Draws (defined here and in rng.cpp, not by <random>):
//   * operator()       the next 64-bit draw;
//   * fill(out)        the next out.size() draws, exactly as that many
//                      operator() calls would return them and leaving the
//                      generator in the same state;
//   * discard(n)       skips n draws in O(1): the state n operator() calls
//                      leave, running at most one block;
//   * uniform()        to_uniform of one draw: (x >> 11) * 2^-53, in [0, 1);
//   * uniform(lo, hi)  lo + (hi - lo) * uniform();
//   * bernoulli(p)     uniform() < p;
//   * normal()         Marsaglia's polar method on two uniforms in (-1, 1);
//                      the pair's second value is returned by the next call;
//   * normal(m, s)     normal() * s + m;
//   * bits / bits_into 64 bits per draw, least-significant bit first;
//   * uniform_index / uniform_int  std::uniform_int_distribution over the
//                      64-bit draws (rng.cpp).
//
// Cost: the generator is 40 bytes, trivially copyable and never allocates;
// derive() is a splitmix64 hash, and a block (two draws) is ten rounds of two
// 32x32->64 multiplies.  operator() runs one block out of line per two
// draws.  fill() runs its blocks in batches: on an x86-64 CPU with AVX2
// (checked once, by __builtin_cpu_supports) four blocks share each vector
// step, in 64-bit lanes, so a counter crossing 2^32 carries per lane;
// elsewhere it runs the scalar block, which is also the reference the SIMD
// kernel is tested against.  Draw for draw the two are the same function.
#ifndef HCQ_UTIL_RNG_H
#define HCQ_UTIL_RNG_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace hcq::util {

/// Seedable counter-based pseudo-random generator (Philox4x32-10) with the
/// distribution helpers the library needs.
class rng {
public:
    using result_type = std::uint64_t;

    /// Constructs a generator from a 64-bit seed (default: fixed seed so that
    /// forgetting to seed still yields reproducible runs).
    explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept : seed_(seed) {}

    /// Returns a generator for an independent stream identified by
    /// `stream_id`; deterministic in (seed, stream_id).
    [[nodiscard]] rng derive(std::uint64_t stream_id) const noexcept;

    /// Uniform real in [0, 1): the top 53 bits of one draw.
    [[nodiscard]] double uniform() noexcept { return to_uniform((*this)()); }
    /// The uniform() value of a draw, for draws taken through fill().
    [[nodiscard]] static constexpr double to_uniform(result_type draw) noexcept {
        return static_cast<double>(draw >> 11) * 0x1.0p-53;
    }
    /// Uniform real in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi);
    /// Uniform integer in [0, n); requires n > 0.
    [[nodiscard]] std::size_t uniform_index(std::size_t n);
    /// Uniform integer in [lo, hi] inclusive.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
    /// Standard normal draw.
    [[nodiscard]] double normal() noexcept;
    /// Normal with the given mean and standard deviation.
    [[nodiscard]] double normal(double mean, double stddev);
    /// Bernoulli draw with success probability p.
    [[nodiscard]] bool bernoulli(double p);
    /// Uniform angle in [0, 2*pi).
    [[nodiscard]] double angle();

    /// n independent fair bits.
    [[nodiscard]] std::vector<std::uint8_t> bits(std::size_t n);

    /// n independent fair bits into a reused buffer (same draw sequence).
    void bits_into(std::size_t n, std::vector<std::uint8_t>& out);

    /// Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::swap(v[i - 1], v[uniform_index(i)]);
        }
    }

    /// UniformRandomBitGenerator interface: the next 64-bit draw.
    [[nodiscard]] result_type operator()() noexcept {
        if (has_spare_) {
            has_spare_ = false;
            return spare_;
        }
        return next_block();
    }
    /// Writes the next out.size() draws into `out`: the values, and the
    /// state left behind, of as many operator() calls.
    void fill(std::span<result_type> out) noexcept;

    /// Skips the next n draws, leaving the state n operator() calls would.
    void discard(std::uint64_t n) noexcept;

    [[nodiscard]] static constexpr result_type min() { return 0; }
    [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

    /// The seed this generator was constructed with (the Philox key).
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

private:
    /// Runs the block at `block_`, keeps its second draw as the spare and
    /// returns the first.
    result_type next_block() noexcept;

    std::uint64_t seed_;
    std::uint64_t block_ = 0;   ///< index of the next block to run
    std::uint64_t spare_ = 0;   ///< second draw of the last block
    double spare_normal_ = 0.0; ///< second value of the last polar pair
    bool has_spare_ = false;
    bool has_spare_normal_ = false;
};

/// The Philox4x32-10 block kernels behind rng::fill, exposed so tests can
/// hold the SIMD kernel to the scalar one.  Each writes out.size() draws,
/// starting with the first draw of block `block` under key `key`, and
/// returns the draw that follows them when out.size() is odd (the second
/// half of the last block), else 0.
namespace philox {

std::uint64_t draws_scalar(std::uint64_t key, std::uint64_t block,
                           std::span<std::uint64_t> out) noexcept;

/// True when this CPU runs draws_avx2 (x86-64 with AVX2).
[[nodiscard]] bool avx2_supported() noexcept;

/// The AVX2 kernel, four blocks per vector step; call only when
/// avx2_supported().  Elsewhere it is draws_scalar.
std::uint64_t draws_avx2(std::uint64_t key, std::uint64_t block,
                         std::span<std::uint64_t> out) noexcept;

}  // namespace philox

}  // namespace hcq::util

#endif  // HCQ_UTIL_RNG_H
