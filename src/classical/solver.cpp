// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "classical/solver.h"

#include <stdexcept>

#include "util/timer.h"

namespace hcq::solvers {

initial_state initializer::initialize(const qubo::qubo_model& q, util::rng& rng) const {
    solve_scratch scratch;
    initial_state out;
    initialize_into(q, rng, scratch, out);
    return out;
}

void random_initializer::initialize_into(const qubo::qubo_model& q, util::rng& rng,
                                         solve_scratch&, initial_state& out) const {
    const util::timer clock;
    rng.bits_into(q.num_variables(), out.bits);
    out.energy = q.energy(out.bits);
    out.elapsed_us = clock.elapsed_us();
}

fixed_initializer::fixed_initializer(qubo::bit_vector bits, std::string label)
    : bits_(std::move(bits)), label_(std::move(label)) {}

void fixed_initializer::initialize_into(const qubo::qubo_model& q, util::rng&, solve_scratch&,
                                        initial_state& out) const {
    if (bits_.size() != q.num_variables()) {
        throw std::invalid_argument("fixed_initializer: bit count mismatch");
    }
    out.bits.assign(bits_.begin(), bits_.end());
    out.energy = q.energy(out.bits);
    out.elapsed_us = 0.0;
}

}  // namespace hcq::solvers
