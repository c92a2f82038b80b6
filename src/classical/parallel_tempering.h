// Parallel tempering (replica-exchange Monte Carlo, Swendsen & Wang [48]) —
// the strongest of the "quantum-inspired" classical samplers the paper's
// introduction points to as alternatives to quantum hardware.
#ifndef HCQ_CLASSICAL_PARALLEL_TEMPERING_H
#define HCQ_CLASSICAL_PARALLEL_TEMPERING_H

#include "classical/solver.h"

namespace hcq::solvers {

/// Replica-exchange parameters.
struct pt_config {
    std::size_t num_replicas = 8;      ///< geometric temperature ladder size
    std::size_t num_rounds = 50;       ///< sweep+swap rounds
    std::size_t sweeps_per_round = 2;  ///< Metropolis sweeps per replica per round
    double hot_fraction = 2.0;         ///< T_hot = hot_fraction * max|Q|
    double cold_fraction = 1e-2;       ///< T_cold = cold_fraction * max|Q|
};

/// Parallel tempering over a geometric temperature ladder.  Returns the
/// first lowest-energy end-of-round state of the coldest replica, or the
/// lowest state any replica held when that is strictly lower.
class parallel_tempering final : public solver {
public:
    explicit parallel_tempering(pt_config config = {});

    double solve_best_into(const qubo::qubo_model& q, util::rng& rng, solve_scratch& scratch,
                           qubo::bit_vector& best) const override;
    [[nodiscard]] std::string name() const override { return "PT"; }

    [[nodiscard]] const pt_config& config() const noexcept { return config_; }

private:
    pt_config config_;
};

}  // namespace hcq::solvers

#endif  // HCQ_CLASSICAL_PARALLEL_TEMPERING_H
