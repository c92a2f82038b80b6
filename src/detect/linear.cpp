// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "detect/linear.h"

#include <span>

#include "detect/scratch.h"
#include "linalg/decompose.h"
#include "util/timer.h"

namespace hcq::detect {

namespace {

// Slices each equalised estimate to the nearest constellation point and
// assembles the detection_result: symbols, bits, and the ML cost of the
// sliced word.  The per-call temporaries of the historical slice_to_result
// (fresh symbol vector, per-symbol heap bit vectors, demodulated bit vector,
// ml_cost residual) now live in `scratch` / `out` — the arithmetic and hence
// the outputs are unchanged.
void slice_to_result_into(const wireless::mimo_instance& instance, const linalg::cvec& soft,
                          detect_scratch& scratch, detection_result& out) {
    out.symbols.resize(soft.size());
    std::uint8_t bits[8];  // bits_per_symbol is at most 6
    const std::size_t bps = wireless::bits_per_symbol(instance.mod);
    for (std::size_t u = 0; u < soft.size(); ++u) {
        wireless::demodulate_symbol_into(instance.mod, soft[u], bits);
        out.symbols[u] =
            wireless::modulate_symbol(instance.mod, std::span<const std::uint8_t>(bits, bps));
    }
    wireless::demodulate_into(instance.mod, out.symbols, out.bits);
    out.ml_cost = instance.ml_cost(out.symbols, scratch.residual);
    out.nodes_visited = 0;
}

}  // namespace

void zf_detector::detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                              detection_result& out) const {
    const util::timer clock;
    linear_scratch& s = scratch.linear;
    linalg::householder_qr_into(instance.h, s.ls.qr, s.ls.factors);
    linalg::herm_matvec_into(s.ls.factors.q, instance.y, s.ls.qhy);
    linalg::solve_upper_into(s.ls.factors.r, s.ls.qhy, s.soft);
    slice_to_result_into(instance, s.soft, scratch, out);
    out.elapsed_us = clock.elapsed_us();
}

void mmse_detector::detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                                detection_result& out) const {
    const util::timer clock;
    linear_scratch& s = scratch.linear;
    const double load = instance.noise_variance / wireless::mean_symbol_energy(instance.mod);
    linalg::gram_into(instance.h, s.gram);
    for (std::size_t i = 0; i < s.gram.rows(); ++i) s.gram(i, i) += load;
    linalg::cholesky_into(s.gram, s.lfac);
    linalg::hermitian_into(s.lfac, s.lh);
    linalg::herm_matvec_into(instance.h, instance.y, s.rhs);
    linalg::solve_lower_into(s.lfac, s.rhs, s.z);
    linalg::solve_upper_into(s.lh, s.z, s.soft);
    slice_to_result_into(instance, s.soft, scratch, out);
    out.elapsed_us = clock.elapsed_us();
}

}  // namespace hcq::detect
