// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "detect/linear.h"

#include <span>

#include "detect/scratch.h"
#include "linalg/decompose.h"

namespace hcq::detect {

namespace {

// Slices each equalised estimate to the nearest constellation point (into
// scratch.symbols), writes the natural-map bits of the sliced word into
// `bits` and returns its ML cost.
double slice_into(const wireless::mimo_instance& instance, const linalg::cvec& soft,
                  detect_scratch& scratch, std::vector<std::uint8_t>& bits) {
    scratch.symbols.resize(soft.size());
    std::uint8_t symbol_bits[8];  // bits_per_symbol is at most 6
    const std::size_t bps = wireless::bits_per_symbol(instance.mod);
    for (std::size_t u = 0; u < soft.size(); ++u) {
        wireless::demodulate_symbol_into(instance.mod, soft[u], symbol_bits);
        scratch.symbols[u] = wireless::modulate_symbol(
            instance.mod, std::span<const std::uint8_t>(symbol_bits, bps));
    }
    wireless::demodulate_into(instance.mod, scratch.symbols, bits);
    return instance.ml_cost(scratch.symbols, scratch.residual);
}

}  // namespace

double zf_detector::detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                                std::vector<std::uint8_t>& bits) const {
    linear_scratch& s = scratch.linear;
    linalg::householder_qr_into(instance.h, s.ls.qr, s.ls.factors);
    linalg::herm_matvec_into(s.ls.factors.q, instance.y, s.ls.qhy);
    linalg::solve_upper_into(s.ls.factors.r, s.ls.qhy, s.soft);
    return slice_into(instance, s.soft, scratch, bits);
}

double mmse_detector::detect_into(const wireless::mimo_instance& instance,
                                  detect_scratch& scratch, std::vector<std::uint8_t>& bits) const {
    linear_scratch& s = scratch.linear;
    const double load = instance.noise_variance / wireless::mean_symbol_energy(instance.mod);
    linalg::gram_into(instance.h, s.gram);
    for (std::size_t i = 0; i < s.gram.rows(); ++i) s.gram(i, i) += load;
    linalg::cholesky_into(s.gram, s.lfac);
    linalg::hermitian_into(s.lfac, s.lh);
    linalg::herm_matvec_into(instance.h, instance.y, s.rhs);
    linalg::solve_lower_into(s.lfac, s.rhs, s.z);
    linalg::solve_upper_into(s.lh, s.z, s.soft);
    return slice_into(instance, s.soft, scratch, bits);
}

}  // namespace hcq::detect
