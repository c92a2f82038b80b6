// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "core/hybrid_solver.h"

#include <stdexcept>

namespace hcq::hybrid {

double refine_into(const anneal::annealer_emulator& device, const anneal::anneal_program& program,
                   std::size_t num_reads, const qubo::qubo_model& q, util::rng& rng,
                   solvers::solve_scratch& scratch, qubo::bit_vector& best, double energy) {
    if (!program.starts_classical) {
        throw std::invalid_argument(
            "refine_into: program must start classical (reverse annealing)");
    }
    if (num_reads == 0) throw std::invalid_argument("refine_into: zero reads");
    const double device_energy =
        device.sample_best_into(q, program, num_reads, rng, &best, scratch, scratch.bits_b);
    if (device_energy < energy) {
        best.assign(scratch.bits_b.begin(), scratch.bits_b.end());
        return device_energy;
    }
    return energy;
}

}  // namespace hcq::hybrid
