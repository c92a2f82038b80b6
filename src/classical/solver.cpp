// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "classical/solver.h"

#include <stdexcept>

#include "util/timer.h"

namespace hcq::solvers {

solution solver::solve(const qubo::qubo_model& q, util::rng& rng) const {
    solve_scratch scratch;
    solution out;
    const util::timer clock;
    out.energy = solve_best_into(q, rng, scratch, out.bits);
    out.elapsed_us = clock.elapsed_us();
    return out;
}

double random_initializer::solve_best_into(const qubo::qubo_model& q, util::rng& rng,
                                           solve_scratch&, qubo::bit_vector& best) const {
    rng.bits_into(q.num_variables(), best);
    return q.energy(best);
}

fixed_initializer::fixed_initializer(qubo::bit_vector bits, std::string label)
    : bits_(std::move(bits)), label_(std::move(label)) {}

double fixed_initializer::solve_best_into(const qubo::qubo_model& q, util::rng&, solve_scratch&,
                                          qubo::bit_vector& best) const {
    if (bits_.size() != q.num_variables()) {
        throw std::invalid_argument("fixed_initializer: bit count mismatch");
    }
    best.assign(bits_.begin(), bits_.end());
    return q.energy(best);
}

}  // namespace hcq::solvers
