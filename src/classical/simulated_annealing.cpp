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

namespace {

/// The one read loop behind solve and solve_best_into: each read draws a
/// uniform start into `start`, cools it through the geometric schedule in
/// `engine`, and hands the finished engine to `take`.
template <typename Take>
void run_reads(const sa_config& config, const qubo::qubo_model& q, util::rng& rng,
               metropolis_engine& engine, qubo::bit_vector& start, Take&& take) {
    const double scale = q.max_abs_coefficient();
    const double t_hot = std::max(config.hot_fraction * scale, 1e-12);
    const double t_cold = std::max(config.cold_fraction * scale, 1e-15);
    const double ratio =
        config.num_sweeps > 1
            ? std::pow(t_cold / t_hot, 1.0 / static_cast<double>(config.num_sweeps - 1))
            : 1.0;
    for (std::size_t read = 0; read < config.num_reads; ++read) {
        rng.bits_into(q.num_variables(), start);
        engine.reset(q, start);
        double temperature = t_hot;
        for (std::size_t s = 0; s < config.num_sweeps; ++s) {
            engine.sweep(temperature, rng);
            temperature *= ratio;
        }
        take(engine);
    }
}

}  // namespace

sample_set simulated_annealing::solve(const qubo::qubo_model& q, util::rng& rng) const {
    solve_scratch scratch;
    sample_set out;
    out.reserve(config_.num_reads);
    run_reads(config_, q, rng, scratch.engine, scratch.bits_a,
              [&](const metropolis_engine& engine) { out.add(engine.state(), engine.energy()); });
    return out;
}

double simulated_annealing::solve_best_into(const qubo::qubo_model& q, util::rng& rng,
                                            solve_scratch& scratch, qubo::bit_vector& best) const {
    // The strict < keeps the FIRST lowest-energy read, which is exactly
    // sample_set::best()'s tie-break.
    double best_energy = 0.0;
    bool has_best = false;
    run_reads(config_, q, rng, scratch.engine, scratch.bits_a,
              [&](const metropolis_engine& engine) {
                  if (!has_best || engine.energy() < best_energy) {
                      has_best = true;
                      best_energy = engine.energy();
                      best.assign(engine.state().begin(), engine.state().end());
                  }
              });
    return best_energy;
}

}  // namespace hcq::solvers
