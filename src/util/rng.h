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
//   * uniform()        (x >> 11) * 2^-53, in [0, 1);
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
// 32x32->64 multiplies.
#ifndef HCQ_UTIL_RNG_H
#define HCQ_UTIL_RNG_H

#include <cstddef>
#include <cstdint>
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

    /// Uniform real in [0, 1): the top 53 bits of one draw.  Inline: this is
    /// the innermost draw of every Metropolis accept test.
    [[nodiscard]] double uniform() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
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

}  // namespace hcq::util

#endif  // HCQ_UTIL_RNG_H
