// The hybrid classical-quantum solver — the paper's prototype design
// (Section 4.1): a classical module feeding a reverse-annealing run on the
// (emulated) quantum device, with per-stage time accounting so that
// end-to-end comparisons can include the classical module's cost.
#ifndef HCQ_CORE_HYBRID_SOLVER_H
#define HCQ_CORE_HYBRID_SOLVER_H

#include "classical/solver.h"
#include "core/device.h"
#include "core/schedule.h"

namespace hcq::hybrid {

/// Everything one hybrid solve produces.
struct hybrid_result {
    solvers::solution initial;    ///< classical module output and its wall time
    solvers::sample_set samples;  ///< annealer reads
    qubo::bit_vector best_bits;   ///< best of {initial, samples}
    double best_energy = 0.0;
    double quantum_us = 0.0;      ///< programmed schedule time x reads
};

/// The quantum stage of a best-only hybrid solve: `num_reads` anneals of
/// the reverse `program` (programmed on `device`), each seeded with the
/// classical module's answer held in `best` (QUBO energy `energy`).  The
/// best read replaces `best` only when its energy is strictly lower, as in
/// hybrid_solver::solve.  Returns the energy of `best`.  A warmed-up
/// scratch makes the call allocation-free under the default device config.
double refine_into(const anneal::annealer_emulator& device, const anneal::anneal_program& program,
                   std::size_t num_reads, const qubo::qubo_model& q, util::rng& rng,
                   solvers::solve_scratch& scratch, qubo::bit_vector& best, double energy);

/// Classical module + (emulated) quantum annealer, run sequentially as in
/// Figure 1's "sequential" hybrid structure.
class hybrid_solver {
public:
    /// `classical` and `device` must outlive the solver.  The schedule must
    /// start classical (reverse annealing) — that is what makes seeding with
    /// the classical candidate meaningful; throws std::invalid_argument
    /// otherwise.
    hybrid_solver(const solvers::solver& classical, const anneal::annealer_emulator& device,
                  anneal::anneal_schedule schedule, std::size_t num_reads);

    /// The classical module's timed solve, then every annealer read seeded
    /// with its answer.
    [[nodiscard]] hybrid_result solve(const qubo::qubo_model& q, util::rng& rng) const;

    /// "<classical module>+RA".
    [[nodiscard]] std::string name() const;

    [[nodiscard]] const anneal::anneal_schedule& schedule() const noexcept { return schedule_; }
    [[nodiscard]] std::size_t num_reads() const noexcept { return num_reads_; }

private:
    const solvers::solver* classical_;
    const anneal::annealer_emulator* device_;
    anneal::anneal_schedule schedule_;
    std::size_t num_reads_;
};

}  // namespace hcq::hybrid

#endif  // HCQ_CORE_HYBRID_SOLVER_H
