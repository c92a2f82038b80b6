// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "classical/simulated_annealing.h"

#include <cmath>
#include <stdexcept>

#include "classical/metropolis.h"

namespace hcq::solvers {

simulated_annealing::simulated_annealing(sa_config config) : config_(config) {
    if (config_.num_reads == 0 || config_.num_sweeps == 0) {
        throw std::invalid_argument("simulated_annealing: zero reads or sweeps");
    }
    if (config_.hot_fraction <= 0.0 || config_.cold_fraction <= 0.0 ||
        config_.cold_fraction > config_.hot_fraction) {
        throw std::invalid_argument("simulated_annealing: bad temperature fractions");
    }
}

double simulated_annealing::solve_best_into(const qubo::qubo_model& q, util::rng& rng,
                                            solve_scratch& scratch, qubo::bit_vector& best) const {
    const double scale = q.max_abs_coefficient();
    const double t_hot = std::max(config_.hot_fraction * scale, 1e-12);
    const double t_cold = std::max(config_.cold_fraction * scale, 1e-15);
    const double ratio =
        config_.num_sweeps > 1
            ? std::pow(t_cold / t_hot, 1.0 / static_cast<double>(config_.num_sweeps - 1))
            : 1.0;
    // Each read cools a uniform random start through the geometric
    // schedule; the strict < keeps the FIRST lowest-energy read.
    metropolis_engine& engine = scratch.engine;
    double best_energy = 0.0;
    for (std::size_t read = 0; read < config_.num_reads; ++read) {
        rng.bits_into(q.num_variables(), scratch.bits_a);
        engine.reset(q, scratch.bits_a);
        double temperature = t_hot;
        {
            draw_cursor draws(rng);  // released before the next read draws
            for (std::size_t s = 0; s < config_.num_sweeps; ++s) {
                engine.sweep(temperature, draws);
                temperature *= ratio;
            }
        }
        if (read == 0 || engine.energy() < best_energy) {
            best_energy = engine.energy();
            best.assign(engine.state().begin(), engine.state().end());
        }
    }
    return best_energy;
}

}  // namespace hcq::solvers
