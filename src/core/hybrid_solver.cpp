// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "core/hybrid_solver.h"

#include <stdexcept>

namespace hcq::hybrid {

double refine_into(const anneal::annealer_emulator& device, const anneal::anneal_program& program,
                   std::size_t num_reads, const qubo::qubo_model& q, util::rng& rng,
                   solvers::solve_scratch& scratch, qubo::bit_vector& best, double energy) {
    const double device_energy =
        device.sample_best_into(q, program, num_reads, rng, &best, scratch, scratch.bits_b);
    if (device_energy < energy) {
        best.assign(scratch.bits_b.begin(), scratch.bits_b.end());
        return device_energy;
    }
    return energy;
}

hybrid_solver::hybrid_solver(const solvers::solver& classical,
                             const anneal::annealer_emulator& device,
                             anneal::anneal_schedule schedule, std::size_t num_reads)
    : classical_(&classical),
      device_(&device),
      schedule_(std::move(schedule)),
      num_reads_(num_reads) {
    if (!schedule_.starts_classical()) {
        throw std::invalid_argument(
            "hybrid_solver: schedule must start classical (reverse annealing)");
    }
    if (num_reads == 0) throw std::invalid_argument("hybrid_solver: zero reads");
}

std::string hybrid_solver::name() const { return classical_->name() + "+RA"; }

hybrid_result hybrid_solver::solve(const qubo::qubo_model& q, util::rng& rng) const {
    hybrid_result out;
    out.initial = classical_->solve(q, rng);
    out.samples = device_->sample(q, schedule_, num_reads_, rng, out.initial.bits);
    out.quantum_us = schedule_.duration_us() * static_cast<double>(num_reads_);

    // A read must strictly beat the classical candidate to replace it.
    out.best_bits = out.initial.bits;
    out.best_energy = out.initial.energy;
    const auto& best_sample = out.samples.best();
    if (best_sample.energy < out.best_energy) {
        out.best_bits = best_sample.bits;
        out.best_energy = best_sample.energy;
    }
    return out;
}

}  // namespace hcq::hybrid
