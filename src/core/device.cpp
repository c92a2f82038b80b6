// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "core/device.h"

#include <cmath>
#include <stdexcept>

#include "classical/metropolis.h"

namespace hcq::anneal {

annealer_emulator::annealer_emulator(annealer_config config) : config_(config) {
    if (config_.sweeps_per_us <= 0.0) {
        throw std::invalid_argument("annealer_emulator: sweeps_per_us <= 0");
    }
    if (config_.temperature_scale <= 0.0) {
        throw std::invalid_argument("annealer_emulator: temperature_scale <= 0");
    }
    if (config_.freeze_fraction < 0.0) {
        throw std::invalid_argument("annealer_emulator: freeze_fraction < 0");
    }
    if (config_.control_noise < 0.0) {
        throw std::invalid_argument("annealer_emulator: control_noise < 0");
    }
    if (config_.readout_flip_probability < 0.0 || config_.readout_flip_probability > 1.0) {
        throw std::invalid_argument("annealer_emulator: readout_flip_probability outside [0,1]");
    }
}

std::size_t annealer_emulator::sweeps_for(const anneal_schedule& schedule) const {
    const double raw = schedule.duration_us() * config_.sweeps_per_us;
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(raw)));
}

qubo::bit_vector annealer_emulator::anneal_once(
    const qubo::qubo_model& q, const anneal_schedule& schedule, util::rng& rng,
    const std::optional<qubo::bit_vector>& initial) const {
    solvers::solve_scratch scratch;
    qubo::bit_vector out;
    anneal_once_into(q, schedule, rng, initial ? &*initial : nullptr, scratch, out);
    return out;
}

void annealer_emulator::anneal_once_into(const qubo::qubo_model& q,
                                         const anneal_schedule& schedule, util::rng& rng,
                                         const qubo::bit_vector* initial,
                                         solvers::solve_scratch& scratch,
                                         qubo::bit_vector& out) const {
    // The start state and the engine live in the caller's scratch.
    qubo::bit_vector& start = scratch.bits_a;
    if (schedule.starts_classical()) {
        if (initial == nullptr) {
            throw std::invalid_argument(
                "annealer_emulator: reverse schedule requires a programmed initial state");
        }
        if (initial->size() != q.num_variables()) {
            throw std::invalid_argument("annealer_emulator: initial state size mismatch");
        }
        start.assign(initial->begin(), initial->end());
    } else {
        rng.bits_into(q.num_variables(), start);
    }

    const double scale = std::max(q.max_abs_coefficient(), 1e-12);

    // Analog control error: the device executes a per-read perturbation of
    // the programmed problem, not the problem itself.  (Energies reported
    // upstream are always evaluated on the true model.)
    const qubo::qubo_model* executed = &q;
    qubo::qubo_model perturbed;
    if (config_.control_noise > 0.0) {
        perturbed = q;
        const double sigma = config_.control_noise * scale;
        const std::size_t n = q.num_variables();
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i; j < n; ++j) {
                if (i == j || q.coefficient(i, j) != 0.0) {
                    perturbed.add_term(i, j, rng.normal(0.0, sigma));
                }
            }
        }
        executed = &perturbed;
    }

    solvers::metropolis_engine& engine = scratch.engine;
    engine.reset(*executed, start);
    const double t0 = config_.temperature_scale * scale;
    const double freeze_below = config_.freeze_fraction * scale;
    const std::size_t sweeps = sweeps_for(schedule);
    const double dt = schedule.duration_us() / static_cast<double>(sweeps);

    for (std::size_t k = 0; k < sweeps; ++k) {
        const double t_mid = (static_cast<double>(k) + 0.5) * dt;
        const double s = schedule.s_at(t_mid);
        const double temperature = t0 * config_.map.fluctuation(s);
        if (temperature < freeze_below) continue;  // frozen register: no dynamics
        engine.sweep(temperature, rng);
    }

    out.assign(engine.state().begin(), engine.state().end());
    if (config_.readout_flip_probability > 0.0) {
        for (auto& bit : out) {
            if (rng.bernoulli(config_.readout_flip_probability)) bit ^= 1U;
        }
    }
}

double annealer_emulator::sample_best_into(const qubo::qubo_model& q,
                                           const anneal_schedule& schedule,
                                           std::size_t num_reads, util::rng& rng,
                                           const qubo::bit_vector* initial,
                                           solvers::solve_scratch& scratch,
                                           qubo::bit_vector& best) const {
    if (num_reads == 0) throw std::invalid_argument("annealer_emulator::sample: zero reads");
    const util::rng stream_base(rng());
    double best_energy = 0.0;
    bool has_best = false;
    for (std::size_t read = 0; read < num_reads; ++read) {
        util::rng stream = stream_base.derive(read);
        anneal_once_into(q, schedule, stream, initial, scratch, scratch.bits_c);
        const double energy = q.energy(scratch.bits_c);
        if (!has_best || energy < best_energy) {
            has_best = true;
            best_energy = energy;
            best.assign(scratch.bits_c.begin(), scratch.bits_c.end());
        }
    }
    return best_energy;
}

solvers::sample_set annealer_emulator::sample(
    const qubo::qubo_model& q, const anneal_schedule& schedule, std::size_t num_reads,
    util::rng& rng, const std::optional<qubo::bit_vector>& initial) const {
    if (num_reads == 0) throw std::invalid_argument("annealer_emulator::sample: zero reads");
    // One fresh salt per call so repeated calls with the same generator see
    // different, but fully deterministic, streams.
    const util::rng stream_base(rng());
    solvers::solve_scratch scratch;
    solvers::sample_set out;
    out.reserve(num_reads);
    for (std::size_t read = 0; read < num_reads; ++read) {
        util::rng stream = stream_base.derive(read);
        anneal_once_into(q, schedule, stream, initial ? &*initial : nullptr, scratch,
                         scratch.bits_c);
        out.add(scratch.bits_c, q.energy(scratch.bits_c));
    }
    return out;
}

}  // namespace hcq::anneal
