// The interface of classical QUBO solvers, which are also the "classical
// module" of a hybrid design (paper Figure 1): a solver's answer is the
// candidate state that seeds the quantum module.
#ifndef HCQ_CLASSICAL_SOLVER_H
#define HCQ_CLASSICAL_SOLVER_H

#include <string>
#include <vector>

#include "classical/metropolis.h"
#include "qubo/model.h"
#include "util/rng.h"

namespace hcq::solvers {

/// One timed, allocating solve: the winning state, its energy, and the wall
/// time of the call (the classical-module cost in hybrid accounting).
struct solution {
    qubo::bit_vector bits;
    double energy = 0.0;
    double elapsed_us = 0.0;
};

/// Reusable per-worker scratch for solve_best_into.  One instance serves
/// every solver kind: each override uses the buffers it needs (the Metropolis
/// engines and bit buffers for sweep solvers and the annealer emulator, the
/// real/index/mask buffers for greedy construction), and a warmed-up scratch
/// makes repeated solves allocation-free.
struct solve_scratch {
    metropolis_engine engine;
    metropolis_engine start;           ///< reads' shared start (annealer emulator)
    /// Parallel tempering's replicas, coldest last.
    std::vector<metropolis_engine> replicas;
    qubo::bit_vector bits_a;           ///< initial / start states
    qubo::bit_vector bits_b;           ///< best-so-far / held-state carrier
    qubo::bit_vector bits_c;           ///< per-read carrier (annealer emulator)
    std::vector<double> real_a;        ///< e.g. greedy Ising fields, PT temperatures
    std::vector<double> real_b;        ///< e.g. greedy partial local fields
    std::vector<std::size_t> index_a;  ///< e.g. greedy rank order, tabu expiry
    std::vector<std::uint8_t> mask_a;  ///< e.g. greedy decided-variable flags
};

/// A classical QUBO solver: a full heuristic (SA, tabu, PT) or a hybrid's
/// classical module (greedy search, a random or a fixed state).
class solver {
public:
    virtual ~solver() = default;

    /// Runs the solver, drawing randomness only from `rng`, and writes the
    /// winning state into `best` (reused buffer), returning its energy.
    /// Among equal-energy reads the first one wins.  Implementations keep
    /// their intermediates in `scratch`.
    virtual double solve_best_into(const qubo::qubo_model& q, util::rng& rng,
                                   solve_scratch& scratch, qubo::bit_vector& best) const = 0;

    /// Allocating, timed form of solve_best_into: runs it on fresh scratch.
    [[nodiscard]] solution solve(const qubo::qubo_model& q, util::rng& rng) const;

    /// Short identifier for bench output.
    [[nodiscard]] virtual std::string name() const = 0;
};

/// Uniform-random state (the paper's "RA from a randomly picked initial
/// state", Figure 6 centre panel).
class random_initializer final : public solver {
public:
    double solve_best_into(const qubo::qubo_model& q, util::rng& rng, solve_scratch& scratch,
                           qubo::bit_vector& best) const override;
    [[nodiscard]] std::string name() const override { return "random"; }
};

/// Fixed, externally supplied state (e.g. the ground truth for the
/// Delta-E_IS = 0 reference runs of Figure 8).
class fixed_initializer final : public solver {
public:
    explicit fixed_initializer(qubo::bit_vector bits, std::string label = "fixed");

    double solve_best_into(const qubo::qubo_model& q, util::rng& rng, solve_scratch& scratch,
                           qubo::bit_vector& best) const override;
    [[nodiscard]] std::string name() const override { return label_; }

private:
    qubo::bit_vector bits_;
    std::string label_;
};

}  // namespace hcq::solvers

#endif  // HCQ_CLASSICAL_SOLVER_H
