// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "core/device.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

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

anneal_program annealer_emulator::program(const anneal_schedule& schedule) const {
    anneal_program out;
    out.starts_classical = schedule.starts_classical();
    const std::size_t sweeps = sweeps_for(schedule);
    const double dt = schedule.duration_us() / static_cast<double>(sweeps);
    const auto t_mid = [dt](std::size_t k) { return (static_cast<double>(k) + 0.5) * dt; };
    const std::vector<schedule_point>& points = schedule.points();
    std::size_t segment = 1;  // points[segment - 1] < t_mid(k) <= points[segment], as s_at reads it
    for (std::size_t k = 0; k < sweeps;) {
        const double t = t_mid(k);
        while (segment + 1 < points.size() && t > points[segment].time_us) ++segment;
        // Inside a constant-s segment s_at returns its s exactly, so every
        // sweep whose midpoint is still in the segment shares this one's f:
        // count them in one step (a pause is one step, however long).
        std::size_t count = 1;
        const schedule_point& end = points[segment];
        if (points[segment - 1].s == end.s && t <= end.time_us) {
            const double guess = std::min(end.time_us / dt, static_cast<double>(sweeps));
            std::size_t last = std::max(k, static_cast<std::size_t>(guess));
            while (last + 1 < sweeps && t_mid(last + 1) <= end.time_us) ++last;
            while (last >= sweeps || t_mid(last) > end.time_us) --last;
            count = last - k + 1;
        }
        const double f = config_.map.fluctuation(schedule.s_at(t));
        if (!out.runs.empty() && out.runs.back().fluctuation == f) {
            out.runs.back().sweeps += count;
        } else {
            out.runs.push_back({f, count});
        }
        k += count;
    }
    return out;
}

namespace {

/// Writes one read's start state into `start`: the programmed classical
/// state for a reverse program, else fair bits drawn from `rng`.
void load_start(const qubo::qubo_model& q, const anneal_program& program, util::rng& rng,
                const qubo::bit_vector* initial, qubo::bit_vector& start) {
    if (!program.starts_classical) {
        rng.bits_into(q.num_variables(), start);
        return;
    }
    if (initial == nullptr) {
        throw std::invalid_argument(
            "annealer_emulator: reverse schedule requires a programmed initial state");
    }
    if (initial->size() != q.num_variables()) {
        throw std::invalid_argument("annealer_emulator: initial state size mismatch");
    }
    start.assign(initial->begin(), initial->end());
}

/// One read, measured into `out`.  scratch.engine starts as a copy of
/// `shared` when the call's reads share a start, else from load_start on
/// the problem as executed; `scale` is max|Q| (floored at 1e-12).
void anneal_read(const annealer_config& config, const qubo::qubo_model& q,
                 const anneal_program& program, double scale, util::rng& rng,
                 const qubo::bit_vector* initial, const solvers::metropolis_engine* shared,
                 solvers::solve_scratch& scratch, qubo::bit_vector& out) {
    solvers::metropolis_engine& engine = scratch.engine;
    qubo::qubo_model perturbed;
    if (shared != nullptr) {
        engine = *shared;
    } else {
        load_start(q, program, rng, initial, scratch.bits_a);
        // Analog control error: the device executes a per-read perturbation
        // of the programmed problem, not the problem itself.  (Energies
        // reported upstream are always evaluated on the true model.)
        const qubo::qubo_model* executed = &q;
        if (config.control_noise > 0.0) {
            perturbed = q;
            const double sigma = config.control_noise * scale;
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
        engine.reset(*executed, scratch.bits_a);
    }

    const double t0 = config.temperature_scale * scale;
    const double freeze_below = config.freeze_fraction * scale;
    {
        solvers::draw_cursor draws(rng);  // released before the read-out draws
        for (const anneal_program::run& run : program.runs) {
            const double temperature = t0 * run.fluctuation;
            if (temperature < freeze_below) continue;  // frozen register: no dynamics
            for (std::size_t k = 0; k < run.sweeps; ++k) engine.sweep(temperature, draws);
        }
    }

    out.assign(engine.state().begin(), engine.state().end());
    if (config.readout_flip_probability > 0.0) {
        for (auto& bit : out) {
            if (rng.bernoulli(config.readout_flip_probability)) bit ^= 1U;
        }
    }
}

/// Runs `num_reads` reads, read r on stream r derived from one salt drawn
/// from `rng`, and hands each read's state and energy to `on_read`.
/// `caller` names the public entry in the zero-reads error.
template <typename OnRead>
void run_reads(const char* caller, const annealer_config& config, const qubo::qubo_model& q,
               const anneal_program& program, std::size_t num_reads, util::rng& rng,
               const qubo::bit_vector* initial, solvers::solve_scratch& scratch,
               OnRead&& on_read) {
    if (num_reads == 0) throw std::invalid_argument(std::string(caller) + ": zero reads");
    // One fresh salt per call so repeated calls with the same generator see
    // different, but fully deterministic, streams.
    const util::rng stream_base(rng());
    const double scale = std::max(q.max_abs_coefficient(), 1e-12);
    // Without control noise, reverse reads all start from the same state on
    // the same model: its energy and local fields are computed once here.
    const solvers::metropolis_engine* shared = nullptr;
    if (program.starts_classical && config.control_noise == 0.0) {
        load_start(q, program, rng, initial, scratch.bits_a);
        scratch.start.reset(q, scratch.bits_a);
        shared = &scratch.start;
    }
    for (std::size_t read = 0; read < num_reads; ++read) {
        util::rng stream = stream_base.derive(read);
        anneal_read(config, q, program, scale, stream, initial, shared, scratch, scratch.bits_c);
        on_read(scratch.bits_c, q.energy(scratch.bits_c));
    }
}

}  // namespace

qubo::bit_vector annealer_emulator::anneal_once(
    const qubo::qubo_model& q, const anneal_schedule& schedule, util::rng& rng,
    const std::optional<qubo::bit_vector>& initial) const {
    solvers::solve_scratch scratch;
    qubo::bit_vector out;
    anneal_once_into(q, program(schedule), rng, initial ? &*initial : nullptr, scratch, out);
    return out;
}

void annealer_emulator::anneal_once_into(const qubo::qubo_model& q,
                                         const anneal_program& program, util::rng& rng,
                                         const qubo::bit_vector* initial,
                                         solvers::solve_scratch& scratch,
                                         qubo::bit_vector& out) const {
    const double scale = std::max(q.max_abs_coefficient(), 1e-12);
    anneal_read(config_, q, program, scale, rng, initial, nullptr, scratch, out);
}

double annealer_emulator::sample_best_into(const qubo::qubo_model& q,
                                           const anneal_program& program,
                                           std::size_t num_reads, util::rng& rng,
                                           const qubo::bit_vector* initial,
                                           solvers::solve_scratch& scratch,
                                           qubo::bit_vector& best) const {
    double best_energy = 0.0;
    bool has_best = false;
    run_reads("annealer_emulator::sample_best_into", config_, q, program, num_reads, rng,
              initial, scratch, [&](const qubo::bit_vector& bits, double energy) {
                  if (!has_best || energy < best_energy) {
                      has_best = true;
                      best_energy = energy;
                      best.assign(bits.begin(), bits.end());
                  }
              });
    return best_energy;
}

solvers::sample_set annealer_emulator::sample(
    const qubo::qubo_model& q, const anneal_schedule& schedule, std::size_t num_reads,
    util::rng& rng, const std::optional<qubo::bit_vector>& initial) const {
    solvers::solve_scratch scratch;
    solvers::sample_set out;
    out.reserve(num_reads);
    run_reads("annealer_emulator::sample", config_, q, program(schedule), num_reads, rng,
              initial ? &*initial : nullptr, scratch,
              [&](const qubo::bit_vector& bits, double energy) { out.add(bits, energy); });
    return out;
}

}  // namespace hcq::anneal
