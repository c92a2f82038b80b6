// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "classical/parallel_tempering.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "classical/metropolis.h"

namespace hcq::solvers {

parallel_tempering::parallel_tempering(pt_config config) : config_(config) {
    if (config_.num_replicas < 2) throw std::invalid_argument("parallel_tempering: need >= 2 replicas");
    if (config_.num_rounds == 0 || config_.sweeps_per_round == 0) {
        throw std::invalid_argument("parallel_tempering: zero rounds or sweeps");
    }
    if (config_.cold_fraction <= 0.0 || config_.cold_fraction > config_.hot_fraction) {
        throw std::invalid_argument("parallel_tempering: bad temperature fractions");
    }
}

double parallel_tempering::solve_best_into(const qubo::qubo_model& q, util::rng& rng,
                                           solve_scratch& scratch, qubo::bit_vector& best) const {
    const double scale = std::max(q.max_abs_coefficient(), 1e-12);
    const std::size_t r = config_.num_replicas;
    std::vector<double>& temperature = scratch.real_a;
    temperature.resize(r);
    const double t_hot = config_.hot_fraction * scale;
    const double t_cold = config_.cold_fraction * scale;
    const double ratio = std::pow(t_cold / t_hot, 1.0 / static_cast<double>(r - 1));
    for (std::size_t k = 0; k < r; ++k) {
        temperature[k] = t_hot * std::pow(ratio, static_cast<double>(k));
    }

    // The scratch keeps its engines when a smaller ladder runs, so a
    // workspace shared by several PT configurations stays warm.
    if (scratch.replicas.size() < r) scratch.replicas.resize(r);
    const std::span<metropolis_engine> replicas(scratch.replicas.data(), r);
    for (auto& replica : replicas) {
        rng.bits_into(q.num_variables(), scratch.bits_a);
        replica.reset(q, scratch.bits_a);
    }

    // `best` tracks the first lowest-energy end-of-round cold state; `held`
    // the first lowest-energy state any replica held, the start included.
    double cold_energy = 0.0;
    qubo::bit_vector& held = scratch.bits_b;
    held = replicas.back().state();
    double held_energy = replicas.back().energy();

    for (std::size_t round = 0; round < config_.num_rounds; ++round) {
        {
            draw_cursor draws(rng);  // released before the swaps draw
            for (std::size_t k = 0; k < r; ++k) {
                for (std::size_t s = 0; s < config_.sweeps_per_round; ++s) {
                    replicas[k].sweep(temperature[k], draws);
                }
            }
        }
        // Adjacent swap attempts (alternate even/odd pairs per round).
        for (std::size_t k = round % 2; k + 1 < r; k += 2) {
            const double beta_a = 1.0 / temperature[k];
            const double beta_b = 1.0 / temperature[k + 1];
            // Detailed balance for the pair exchange: accept with probability
            // min(1, exp((beta_b - beta_a) * (E_b - E_a))).
            const double delta =
                (beta_b - beta_a) * (replicas[k + 1].energy() - replicas[k].energy());
            if (delta >= 0.0 || rng.uniform() < std::exp(delta)) {
                std::swap(replicas[k], replicas[k + 1]);  // moves buffers, no copy
            }
        }
        const auto& cold = replicas.back();
        if (round == 0 || cold.energy() < cold_energy) {
            cold_energy = cold.energy();
            best.assign(cold.state().begin(), cold.state().end());
        }
        for (const auto& rep : replicas) {
            if (rep.energy() < held_energy) {
                held_energy = rep.energy();
                held = rep.state();
            }
        }
    }
    // A held state only replaces the cold one when strictly lower.
    if (held_energy < cold_energy) {
        best.assign(held.begin(), held.end());
        return held_energy;
    }
    return cold_energy;
}

}  // namespace hcq::solvers
