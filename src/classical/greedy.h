// Greedy Search (GS) — the paper's classical module (Section 4.1, step 1),
// after the greedy descent of Venturelli & Kondratyev [52].
//
// The bits are ranked by the magnitude of the Ising linear term
//     h_i = 1/2 Q_ii + 1/4 sum_{k<i} Q_ki + 1/4 sum_{k>i} Q_ik
// (the paper's footnote: "sorted by the absolute magnitude of the matrix's
// diagonal elements in the Ising model").  The first bit takes q_i = 0 when
// h_i > 0 and 1 otherwise; each subsequent bit (in rank order) takes the
// value that minimises the QUBO energy restricted to already-set variables,
// i.e. the sign of its partial local field.  Complexity O(N^2) time /
// O(N) extra space — "nearly negligible" next to any annealing call.
//
// NOTE on rank direction: the paper's prose sorts bits "in ascending order
// by the magnitude" (least decided first) — `rank_order::least_decided_first`
// implements this and is the default.  The direction also matters for the
// *hybrid*: the two orders distribute residual errors differently between
// weakly- and strongly-decided bits, which changes how refinable the state
// is by a reverse anneal (instance-dependent; quantified by the initialiser
// ablation bench).  `most_decided_first` typically reaches lower raw energy
// and is kept as the ablation variant.
#ifndef HCQ_CLASSICAL_GREEDY_H
#define HCQ_CLASSICAL_GREEDY_H

#include "classical/solver.h"

namespace hcq::solvers {

/// Bit-ranking direction for greedy search.
enum class rank_order { least_decided_first, most_decided_first };

/// Deterministic greedy QUBO descent.
class greedy_search final : public solver {
public:
    explicit greedy_search(rank_order order = rank_order::least_decided_first)
        : order_(order) {}

    /// Deterministic: ignores `rng`.
    double solve_best_into(const qubo::qubo_model& q, util::rng& rng, solve_scratch& scratch,
                           qubo::bit_vector& best) const override;
    [[nodiscard]] std::string name() const override { return "GS"; }

    [[nodiscard]] rank_order order() const noexcept { return order_; }

private:
    rank_order order_;
};

}  // namespace hcq::solvers

#endif  // HCQ_CLASSICAL_GREEDY_H
