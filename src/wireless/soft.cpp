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

void symbol_llrs_into(modulation mod, linalg::cxd equalized, double noise_variance,
                      std::span<double> out) {
    if (noise_variance <= 0.0) throw std::invalid_argument("symbol_llrs: noise_variance <= 0");
    const auto points = constellation(mod);
    const std::size_t bps = bits_per_symbol(mod);
    if (out.size() != bps) throw std::invalid_argument("symbol_llrs: wrong output length");
    double min0[8];  // bits_per_symbol is at most 6
    double min1[8];
    for (std::size_t b = 0; b < bps; ++b) {
        min0[b] = std::numeric_limits<double>::infinity();
        min1[b] = std::numeric_limits<double>::infinity();
    }
    for (std::size_t pattern = 0; pattern < points.size(); ++pattern) {
        const double dist = std::norm(equalized - points[pattern]);
        for (std::size_t b = 0; b < bps; ++b) {
            // `constellation` indexes by the natural-map pattern, MSB-first.
            const bool bit = ((pattern >> (bps - 1 - b)) & 1U) != 0;
            auto& best = bit ? min1[b] : min0[b];
            best = std::min(best, dist);
        }
    }
    for (std::size_t b = 0; b < bps; ++b) {
        out[b] = clamp_llr((min1[b] - min0[b]) / noise_variance);
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
                           std::vector<double>& out) {
    if (bits.size() != instance.num_bits()) {
        throw std::invalid_argument("flip_recost_llrs: wrong bit-string length");
    }
    const double nv = std::max(instance.noise_variance, llr_noise_floor);
    // Scratch word reused per flip; cost of the detected word computed once.
    std::vector<std::uint8_t> word(bits.begin(), bits.end());
    linalg::cvec symbols;
    linalg::cvec residual;
    const double base_cost = instance.ml_cost_bits(word, symbols, residual);
    out.resize(bits.size());
    for (std::size_t b = 0; b < bits.size(); ++b) {
        word[b] ^= 1U;
        const double flip_cost = instance.ml_cost_bits(word, symbols, residual);
        word[b] ^= 1U;
        // LLR = (cost of the b=1 word - cost of the b=0 word) / nv: when the
        // detected bit is 0 the base word IS the b=0 word, and vice versa.
        const double gap = (flip_cost - base_cost) / nv;
        out[b] = signed_llr(bits[b], gap);
    }
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
