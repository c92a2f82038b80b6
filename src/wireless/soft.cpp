#include "wireless/soft.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hcq::wireless {

double clamp_llr(double llr) noexcept {
    if (std::isnan(llr)) return 0.0;
    return std::clamp(llr, -llr_cap, llr_cap);
}

double signed_llr(std::uint8_t bit, double magnitude) noexcept {
    return clamp_llr(bit == 0 ? magnitude : -magnitude);
}

std::vector<double> symbol_llrs(modulation mod, linalg::cxd equalized, double noise_variance) {
    std::vector<double> llrs(bits_per_symbol(mod));
    symbol_llrs_into(mod, equalized, noise_variance, llrs);
    return llrs;
}

namespace {

/// Squared-distance minima over the PAM levels of one dimension carrying k
/// bits (natural map, bits MSB-first): by_bit[j][v] over the levels whose
/// bit j is v, and `any` over every level.
struct pam_minima {
    double by_bit[3][2];  // bits_per_dimension is at most 3
    double any;
};

pam_minima dimension_minima(double x, std::size_t k) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    pam_minima m{};
    m.any = inf;
    for (std::size_t j = 0; j < k; ++j) m.by_bit[j][0] = m.by_bit[j][1] = inf;
    const std::size_t levels = std::size_t{1} << k;
    const double top = static_cast<double>(levels - 1);
    for (std::size_t level = 0; level < levels; ++level) {
        // pam_amplitude of the level's bits, 2 level - (2^k - 1), is exact.
        const double diff = x - (2.0 * static_cast<double>(level) - top);
        const double d = diff * diff;
        m.any = std::min(m.any, d);
        for (std::size_t j = 0; j < k; ++j) {
            double& best = m.by_bit[j][(level >> (k - 1 - j)) & 1U];
            best = std::min(best, d);
        }
    }
    return m;
}

}  // namespace

// The natural map is separable: constellation point (i << k) | q sits at
// (amplitude of level i, amplitude of level q), and std::norm forms its
// squared distance as fl(dI + dQ) from the per-dimension squares.  Rounding
// is monotone, so the minimum of fl(dI + dQ) over every point carrying one
// bit value is fl(min dI + min dQ) over the matching levels — the same
// double a scan of all 2^bps points produces, from 2^k squares per
// dimension and without building the constellation.
void symbol_llrs_into(modulation mod, linalg::cxd equalized, double noise_variance,
                      std::span<double> out) {
    if (noise_variance <= 0.0) throw std::invalid_argument("symbol_llrs: noise_variance <= 0");
    const std::size_t bps = bits_per_symbol(mod);
    if (out.size() != bps) throw std::invalid_argument("symbol_llrs: wrong output length");
    const std::size_t k = bits_per_dimension(mod);
    const bool has_quadrature = uses_quadrature(mod);
    const pam_minima in_phase = dimension_minima(equalized.real(), k);
    // BPSK points all sit on the real axis, so each one's Q term is im^2.
    pam_minima quadrature{};
    if (has_quadrature) {
        quadrature = dimension_minima(equalized.imag(), k);
    } else {
        quadrature.any = equalized.imag() * equalized.imag();
    }
    for (std::size_t j = 0; j < k; ++j) {
        out[j] = clamp_llr(((in_phase.by_bit[j][1] + quadrature.any) -
                            (in_phase.by_bit[j][0] + quadrature.any)) /
                           noise_variance);
        if (!has_quadrature) continue;
        out[k + j] = clamp_llr(((in_phase.any + quadrature.by_bit[j][1]) -
                                (in_phase.any + quadrature.by_bit[j][0])) /
                               noise_variance);
    }
}

void equalized_llrs_into(const mimo_instance& instance, const linalg::cvec& equalized,
                         std::span<const double> stream_noise_variance,
                         std::vector<double>& out) {
    if (equalized.size() != instance.num_users ||
        stream_noise_variance.size() != instance.num_users) {
        throw std::invalid_argument("equalized_llrs: wrong per-user vector length");
    }
    const std::size_t bps = bits_per_symbol(instance.mod);
    out.resize(instance.num_bits());
    for (std::size_t u = 0; u < instance.num_users; ++u) {
        const double nv = std::max(stream_noise_variance[u], llr_noise_floor * 1e-9);
        symbol_llrs_into(instance.mod, equalized[u], nv,
                         std::span<double>(out).subspan(u * bps, bps));
    }
}

void flip_recost_llrs_into(const mimo_instance& instance, std::span<const std::uint8_t> bits,
                           recost_scratch& scratch, std::vector<double>& out) {
    if (bits.size() != instance.num_bits()) {
        throw std::invalid_argument("flip_recost_llrs: wrong bit-string length");
    }
    const double nv = std::max(instance.noise_variance, llr_noise_floor);
    // One word reused per flip; cost of the detected word computed once.
    std::vector<std::uint8_t>& word = scratch.word;
    word.assign(bits.begin(), bits.end());
    const double base_cost = instance.ml_cost_bits(word, scratch.symbols, scratch.residual);
    out.resize(bits.size());
    for (std::size_t b = 0; b < bits.size(); ++b) {
        word[b] ^= 1U;
        const double flip_cost = instance.ml_cost_bits(word, scratch.symbols, scratch.residual);
        word[b] ^= 1U;
        // LLR = (cost of the b=1 word - cost of the b=0 word) / nv: when the
        // detected bit is 0 the base word IS the b=0 word, and vice versa.
        const double gap = (flip_cost - base_cost) / nv;
        out[b] = signed_llr(bits[b], gap);
    }
}

void flip_recost_llrs_into(const mimo_instance& instance, std::span<const std::uint8_t> bits,
                           std::vector<double>& out) {
    recost_scratch scratch;
    flip_recost_llrs_into(instance, bits, scratch, out);
}

std::vector<std::uint8_t> harden(const std::vector<double>& llrs) {
    std::vector<std::uint8_t> bits;
    harden_into(llrs, bits);
    return bits;
}

void harden_into(std::span<const double> llrs, std::vector<std::uint8_t>& out) {
    out.resize(llrs.size());
    for (std::size_t b = 0; b < llrs.size(); ++b) out[b] = clamp_llr(llrs[b]) >= 0.0 ? 0 : 1;
}

void accumulate_llrs(std::span<const double> in, std::span<double> out) {
    if (in.size() != out.size()) {
        throw std::invalid_argument("accumulate_llrs: length mismatch");
    }
    for (std::size_t b = 0; b < in.size(); ++b) {
        out[b] = clamp_llr(out[b] + clamp_llr(in[b]));
    }
}

}  // namespace hcq::wireless
