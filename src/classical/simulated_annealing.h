// Plain geometric-schedule simulated annealing — the standard classical
// baseline for QUBO heuristics, and a reference point distinct from the
// schedule-driven annealer emulator in core/anneal.
#ifndef HCQ_CLASSICAL_SIMULATED_ANNEALING_H
#define HCQ_CLASSICAL_SIMULATED_ANNEALING_H

#include "classical/solver.h"

namespace hcq::solvers {

/// Parameters of the geometric cooling schedule.
struct sa_config {
    std::size_t num_reads = 10;    ///< independent restarts
    std::size_t num_sweeps = 100;  ///< sweeps per read
    double hot_fraction = 1.0;     ///< T_hot = hot_fraction * max|Q|
    double cold_fraction = 1e-3;   ///< T_cold = cold_fraction * max|Q|
};

/// Geometric simulated annealing from uniform random starts.
class simulated_annealing final : public solver {
public:
    explicit simulated_annealing(sa_config config = {});

    double solve_best_into(const qubo::qubo_model& q, util::rng& rng, solve_scratch& scratch,
                           qubo::bit_vector& best) const override;
    [[nodiscard]] std::string name() const override { return "SA"; }

    [[nodiscard]] const sa_config& config() const noexcept { return config_; }

private:
    sa_config config_;
};

}  // namespace hcq::solvers

#endif  // HCQ_CLASSICAL_SIMULATED_ANNEALING_H
