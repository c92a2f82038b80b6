// Interfaces for classical QUBO solvers and for the "classical module" of a
// hybrid design (paper Figure 1): an initialiser produces a candidate state
// that seeds the quantum module.
#ifndef HCQ_CLASSICAL_SOLVER_H
#define HCQ_CLASSICAL_SOLVER_H

#include <string>
#include <vector>

#include "classical/metropolis.h"
#include "qubo/model.h"
#include "util/rng.h"

namespace hcq::solvers {

/// Result of running an initialiser: the candidate state and the classical
/// compute time spent producing it (used for end-to-end hybrid accounting).
struct initial_state {
    qubo::bit_vector bits;
    double energy = 0.0;
    double elapsed_us = 0.0;
};

/// Reusable per-worker scratch for solve_best_into.  One instance serves
/// every solver kind: each override uses the buffers it needs (the Metropolis
/// engine and bit buffers for sweep solvers, the real/index/mask buffers for
/// greedy construction, the initial-state slot for hybrid structures), and a
/// warmed-up scratch makes repeated solves allocation-free.
struct solve_scratch {
    metropolis_engine engine;
    qubo::bit_vector bits_a;           ///< initial / start states
    qubo::bit_vector bits_b;           ///< best-so-far carrier
    qubo::bit_vector bits_c;           ///< per-read carrier (annealer emulator)
    std::vector<double> real_a;        ///< e.g. greedy Ising fields
    std::vector<double> real_b;        ///< e.g. greedy partial local fields
    std::vector<std::size_t> index_a;  ///< e.g. greedy rank order, tabu expiry
    std::vector<std::uint8_t> mask_a;  ///< e.g. greedy decided-variable flags
    initial_state init;                ///< hybrid classical-module output
};

/// A full classical QUBO solver: runs its reads and keeps the best state.
class solver {
public:
    virtual ~solver() = default;

    /// Runs the solver, drawing randomness only from `rng`, and writes the
    /// winning state into `best` (reused buffer), returning its energy.
    /// Among equal-energy reads the first one wins.  Implementations keep
    /// their intermediates in `scratch`.
    virtual double solve_best_into(const qubo::qubo_model& q, util::rng& rng,
                                   solve_scratch& scratch, qubo::bit_vector& best) const = 0;

    /// Short identifier for bench output.
    [[nodiscard]] virtual std::string name() const = 0;
};

/// The classical half of a hybrid classical-quantum structure.
class initializer {
public:
    virtual ~initializer() = default;

    /// Produces the candidate state into reused buffers.  Implementations
    /// keep their intermediates in `scratch`, so a warmed-up call performs
    /// no allocations.
    virtual void initialize_into(const qubo::qubo_model& q, util::rng& rng,
                                 solve_scratch& scratch, initial_state& out) const = 0;

    /// Allocating form of initialize_into: runs it on a fresh scratch.
    [[nodiscard]] initial_state initialize(const qubo::qubo_model& q, util::rng& rng) const;

    [[nodiscard]] virtual std::string name() const = 0;
};

/// Uniform-random initial state (the paper's "RA from a randomly picked
/// initial state", Figure 6 centre panel).
class random_initializer final : public initializer {
public:
    void initialize_into(const qubo::qubo_model& q, util::rng& rng, solve_scratch& scratch,
                         initial_state& out) const override;
    [[nodiscard]] std::string name() const override { return "random"; }
};

/// Fixed, externally supplied initial state (e.g. the ground truth for the
/// Delta-E_IS = 0 reference runs of Figure 8).
class fixed_initializer final : public initializer {
public:
    explicit fixed_initializer(qubo::bit_vector bits, std::string label = "fixed");

    void initialize_into(const qubo::qubo_model& q, util::rng& rng, solve_scratch& scratch,
                         initial_state& out) const override;
    [[nodiscard]] std::string name() const override { return label_; }

private:
    qubo::bit_vector bits_;
    std::string label_;
};

}  // namespace hcq::solvers

#endif  // HCQ_CLASSICAL_SOLVER_H
