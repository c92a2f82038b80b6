// Tabu search over single-bit flips — the classical solver D-Wave hybridises
// with its annealing QPUs in the commercial hybrid solver service the paper
// cites ([1], Section 2).
#ifndef HCQ_CLASSICAL_TABU_H
#define HCQ_CLASSICAL_TABU_H

#include "classical/solver.h"

namespace hcq::solvers {

/// Tabu parameters.
struct tabu_config {
    std::size_t tenure = 10;          ///< iterations a flipped bit stays tabu
    std::size_t max_iterations = 500;
    std::size_t stall_limit = 100;    ///< stop after this many non-improving moves
};

/// Best-improvement tabu search with aspiration (a tabu move is allowed when
/// it improves on the best energy seen).  Doubles as a hybrid's classical
/// module.
class tabu_search final : public solver {
public:
    explicit tabu_search(tabu_config config = {});

    double solve_best_into(const qubo::qubo_model& q, util::rng& rng, solve_scratch& scratch,
                           qubo::bit_vector& best) const override;
    [[nodiscard]] std::string name() const override { return "Tabu"; }

    [[nodiscard]] const tabu_config& config() const noexcept { return config_; }

private:
    tabu_config config_;
};

}  // namespace hcq::solvers

#endif  // HCQ_CLASSICAL_TABU_H
