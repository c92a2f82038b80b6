// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "detect/transform.h"

#include <cmath>
#include <stdexcept>

#include "qubo/constraints.h"
#include "qubo/ising.h"

namespace hcq::detect {

using linalg::cmat;
using linalg::cvec;
using linalg::cxd;

linalg::cvec ml_qubo::symbols(std::span<const std::uint8_t> bits) const {
    return wireless::modulate(mod, bits);
}

ml_qubo ml_to_qubo(const cmat& h, const cvec& y, wireless::modulation mod) {
    qubo_scratch scratch;
    ml_qubo out;
    ml_to_qubo_into(h, y, mod, scratch, out);
    return out;
}

ml_qubo ml_to_qubo(const wireless::mimo_instance& instance) {
    return ml_to_qubo(instance.h, instance.y, instance.mod);
}

void ml_to_qubo_into(const cmat& h, const cvec& y, wireless::modulation mod,
                     qubo_scratch& scratch, ml_qubo& out) {
    const std::size_t num_users = h.cols();
    const std::size_t num_antennas = h.rows();
    if (num_users == 0 || num_antennas == 0) throw std::invalid_argument("ml_to_qubo: empty H");
    if (y.size() != num_antennas) throw std::invalid_argument("ml_to_qubo: y/H shape mismatch");

    const std::size_t k = wireless::bits_per_dimension(mod);
    const std::size_t bps = wireless::bits_per_symbol(mod);
    const std::size_t nb = num_users * bps;

    // A: users x bits weight matrix of the natural linear map, x = A t.
    // It depends only on (mod, users), so rebuild only when the key changed.
    if (!scratch.a_valid || scratch.a_mod != mod || scratch.a_users != num_users) {
        scratch.a.resize(num_users, nb);  // zero-fills
        for (std::size_t u = 0; u < num_users; ++u) {
            for (std::size_t j = 0; j < k; ++j) {
                const double w = std::pow(2.0, static_cast<double>(k - 1 - j));
                scratch.a(u, u * bps + j) = cxd(w, 0.0);
                if (wireless::uses_quadrature(mod)) {
                    scratch.a(u, u * bps + k + j) = cxd(0.0, w);
                }
            }
        }
        scratch.a_mod = mod;
        scratch.a_users = num_users;
        scratch.a_valid = true;
    }

    // B = H A, G = B^H B, c = B^H y — the into-kernels replicate the exact
    // operation order of the matrix operators, so the coefficients are
    // bit-identical to the temporary-based formulation.
    linalg::multiply_into(h, scratch.a, scratch.b);
    linalg::gram_into(scratch.b, scratch.gram);
    linalg::herm_matvec_into(scratch.b, y, scratch.bhy);

    scratch.ising.reset(nb);
    double offset = 0.0;
    const double yn = y.norm2();
    offset += yn * yn;
    for (std::size_t i = 0; i < nb; ++i) {
        scratch.ising.set_field(i, -2.0 * scratch.bhy[i].real());
        offset += scratch.gram(i, i).real();  // t_i^2 == 1
        for (std::size_t j = i + 1; j < nb; ++j) {
            const double g = scratch.gram(i, j).real();
            if (g != 0.0) scratch.ising.set_coupling(i, j, 2.0 * g);
        }
    }
    scratch.ising.set_offset(offset);

    qubo::to_qubo_into(scratch.ising, out.model);
    out.mod = mod;
    out.num_users = num_users;
}

void ml_to_qubo_into(const wireless::mimo_instance& instance, qubo_scratch& scratch,
                     ml_qubo& out) {
    ml_to_qubo_into(instance.h, instance.y, instance.mod, scratch, out);
}

void apply_symbol_prior(ml_qubo& mq, std::size_t user,
                        std::span<const std::uint8_t> believed_bits, double strength) {
    const std::size_t bps = wireless::bits_per_symbol(mq.mod);
    if (user >= mq.num_users) throw std::invalid_argument("apply_symbol_prior: bad user");
    if (believed_bits.size() != bps) {
        throw std::invalid_argument("apply_symbol_prior: pattern must cover the whole symbol");
    }
    qubo::add_pattern_constraint(mq.model, user * bps, believed_bits, strength);
}

}  // namespace hcq::detect
