// The quantum stage of the paper's hybrid classical-quantum structure
// (Section 4.1, Figure 1's "sequential" hybrid): reverse annealing on the
// (emulated) quantum device, seeded with a classical module's answer.  The
// classical module is any solvers::solver (solve_best_into) or detector
// (detect_into); the gsra/kxra detection paths (paths/registry.h) run it,
// then refine_into, and report both stages' times.
#ifndef HCQ_CORE_HYBRID_SOLVER_H
#define HCQ_CORE_HYBRID_SOLVER_H

#include "classical/solver.h"
#include "core/device.h"

namespace hcq::hybrid {

/// The quantum stage of a best-only hybrid solve: `num_reads` anneals of
/// the reverse `program` (programmed on `device`), each seeded with the
/// classical module's answer held in `best` (QUBO energy `energy`).  The
/// best read replaces `best` only when its energy is strictly lower.
/// Returns the energy of `best`.  Throws std::invalid_argument when
/// `program` does not start classical (the seed is what reverse annealing
/// refines) or `num_reads` is 0.  A warmed-up scratch makes the call
/// allocation-free under the default device config.
double refine_into(const anneal::annealer_emulator& device, const anneal::anneal_program& program,
                   std::size_t num_reads, const qubo::qubo_model& q, util::rng& rng,
                   solvers::solve_scratch& scratch, qubo::bit_vector& best, double energy);

}  // namespace hcq::hybrid

#endif  // HCQ_CORE_HYBRID_SOLVER_H
