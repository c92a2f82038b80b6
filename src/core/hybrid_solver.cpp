// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "core/hybrid_solver.h"

#include <stdexcept>

namespace hcq::hybrid {

hybrid_solver::hybrid_solver(const solvers::initializer& init,
                             const anneal::annealer_emulator& device,
                             anneal::anneal_schedule schedule, std::size_t num_reads)
    : init_(&init), device_(&device), schedule_(std::move(schedule)), num_reads_(num_reads) {
    if (!schedule_.starts_classical()) {
        throw std::invalid_argument(
            "hybrid_solver: schedule must start classical (reverse annealing)");
    }
    if (num_reads == 0) throw std::invalid_argument("hybrid_solver: zero reads");
}

std::string hybrid_solver::name() const { return init_->name() + "+RA"; }

hybrid_result hybrid_solver::solve(const qubo::qubo_model& q, util::rng& rng) const {
    hybrid_result out;
    out.initial = init_->initialize(q, rng);
    out.samples = device_->sample(q, schedule_, num_reads_, rng, out.initial.bits);
    out.classical_us = out.initial.elapsed_us;
    out.quantum_us = schedule_.duration_us() * static_cast<double>(num_reads_);

    out.best_bits = out.initial.bits;
    out.best_energy = out.initial.energy;
    const auto& best_sample = out.samples.best();
    if (best_sample.energy < out.best_energy) {
        out.best_bits = best_sample.bits;
        out.best_energy = best_sample.energy;
    }
    return out;
}

double hybrid_solver::solve_best_into(const qubo::qubo_model& q, util::rng& rng,
                                      solvers::solve_scratch& scratch, qubo::bit_vector& best,
                                      timings& times) const {
    init_->initialize_into(q, rng, scratch, scratch.init);
    const double device_energy = device_->sample_best_into(q, schedule_, num_reads_, rng,
                                                           &scratch.init.bits, scratch,
                                                           scratch.bits_b);
    times.classical_us = scratch.init.elapsed_us;
    times.quantum_us = schedule_.duration_us() * static_cast<double>(num_reads_);

    // Same winner rule as solve(): the device read must strictly beat the
    // classical candidate.
    if (device_energy < scratch.init.energy) {
        best.assign(scratch.bits_b.begin(), scratch.bits_b.end());
        return device_energy;
    }
    best.assign(scratch.init.bits.begin(), scratch.init.bits.end());
    return scratch.init.energy;
}

}  // namespace hcq::hybrid
