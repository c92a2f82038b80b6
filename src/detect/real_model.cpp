// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "detect/real_model.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "detect/scratch.h"
#include "linalg/decompose.h"
#include "linalg/real_embed.h"

namespace hcq::detect {

namespace {

/// Stacks [Re H; Im H] (the thin BPSK embedding) into `out`.
void stack_bpsk_embedding(const linalg::cmat& h, linalg::rmat& out) {
    out.resize(2 * h.rows(), h.cols());
    for (std::size_t r = 0; r < h.rows(); ++r) {
        for (std::size_t c = 0; c < h.cols(); ++c) {
            out(r, c) = h(r, c).real();
            out(h.rows() + r, c) = h(r, c).imag();
        }
    }
}

}  // namespace

const real_model& make_real_model_into(const wireless::mimo_instance& instance,
                                       lattice_scratch& scratch) {
    real_model& model = scratch.model;
    model.mod = instance.mod;
    model.num_users = instance.num_users;
    model.quadrature = wireless::uses_quadrature(instance.mod);
    const std::size_t bits_per_dim = wireless::bits_per_dimension(instance.mod);
    const double max_amp = std::pow(2.0, static_cast<double>(bits_per_dim)) - 1.0;
    model.alphabet.clear();
    for (double a = -max_amp; a <= max_amp; a += 2.0) model.alphabet.push_back(a);

    if (model.quadrature) {
        linalg::real_embedding_into(instance.h, scratch.a_real);
        model.dims = 2 * instance.num_users;
    } else {
        stack_bpsk_embedding(instance.h, scratch.a_real);
        model.dims = instance.num_users;
    }
    linalg::householder_qr_into(scratch.a_real, scratch.qr, scratch.factors);
    model.r = scratch.factors.r;
    linalg::real_embedding_into(instance.y, scratch.y_real);
    linalg::herm_matvec_into(scratch.factors.q, scratch.y_real, model.y_eff);
    return model;
}

real_model make_real_model(const wireless::mimo_instance& instance) {
    lattice_scratch scratch;
    make_real_model_into(instance, scratch);
    return std::move(scratch.model);
}

double assemble_result_into(const wireless::mimo_instance& instance,
                            const std::vector<double>& amplitudes, detect_scratch& scratch,
                            std::vector<std::uint8_t>& bits) {
    const bool quadrature = wireless::uses_quadrature(instance.mod);
    const std::size_t n = instance.num_users;
    const std::size_t expected = quadrature ? 2 * n : n;
    if (amplitudes.size() != expected) {
        throw std::invalid_argument("assemble_result: wrong amplitude count");
    }
    scratch.symbols.resize(n);
    for (std::size_t u = 0; u < n; ++u) {
        const double re = amplitudes[u];
        const double im = quadrature ? amplitudes[n + u] : 0.0;
        scratch.symbols[u] = linalg::cxd(re, im);
    }
    wireless::demodulate_into(instance.mod, scratch.symbols, bits);
    return instance.ml_cost(scratch.symbols, scratch.residual);
}

double slice_amplitude(double value, const std::vector<double>& alphabet) {
    if (alphabet.empty()) throw std::invalid_argument("slice_amplitude: empty alphabet");
    double best = alphabet.front();
    double best_dist = std::fabs(value - best);
    for (const double a : alphabet) {
        const double d = std::fabs(value - a);
        if (d < best_dist) {
            best = a;
            best_dist = d;
        }
    }
    return best;
}

}  // namespace hcq::detect
