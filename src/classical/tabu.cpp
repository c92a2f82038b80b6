// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "classical/tabu.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "classical/metropolis.h"

namespace hcq::solvers {

tabu_search::tabu_search(tabu_config config) : config_(config) {
    if (config_.max_iterations == 0) throw std::invalid_argument("tabu_search: no iterations");
}

double tabu_search::solve_best_into(const qubo::qubo_model& q, util::rng& rng,
                                    solve_scratch& scratch, qubo::bit_vector& best) const {
    const std::size_t n = q.num_variables();
    rng.bits_into(n, scratch.bits_a);
    metropolis_engine& engine = scratch.engine;
    engine.reset(q, scratch.bits_a);

    best.assign(engine.state().begin(), engine.state().end());
    double best_energy = engine.energy();

    std::vector<std::size_t>& tabu_until = scratch.index_a;
    tabu_until.assign(n, 0);
    std::vector<double>& cand = scratch.real_a;
    cand.resize(n);
    std::size_t stall = 0;

    // Buffer pointers are loop-invariant: force_flip mutates elements in
    // place and never reallocates, so hoisting them out of the iteration
    // loop is safe.
    const std::uint8_t* bits = engine.state().data();
    const double* fields = engine.fields().data();
    const std::size_t* expiry = tabu_until.data();
    const double inf = std::numeric_limits<double>::infinity();
    const std::uint64_t inf_bits = std::bit_cast<std::uint64_t>(inf);

    for (std::size_t iter = 1; iter <= config_.max_iterations && stall < config_.stall_limit;
         ++iter) {
        // Pick the best admissible flip.  The historical scan was a single
        // branchy first-index argmin; the admissibility pattern is close to
        // random, so here it runs as two branchless passes instead — mask
        // inadmissible moves to +inf, take the min, then find the first
        // index attaining it.  Min over doubles is exact and
        // order-independent and the equality test is exact, so the chosen
        // index — the first admissible index at the minimum delta, exactly
        // what the strict `<` argmin picked — and hence the whole search
        // trajectory are bit-identical to the historical loop.
        const double energy = engine.energy();
        double min_delta = inf;
        for (std::size_t i = 0; i < n; ++i) {
            // XOR of the sign bit is exact IEEE negation, and the mask-select
            // picks exactly `delta` or `+inf` — the same values the branchy
            // form produced, with no data-dependent branch for the (close to
            // random) bit/tabu/aspiration pattern to mispredict on.
            const double delta = std::bit_cast<double>(
                std::bit_cast<std::uint64_t>(fields[i]) ^
                (static_cast<std::uint64_t>(bits[i]) << 63));
            const std::uint64_t admissible =
                static_cast<std::uint64_t>(expiry[i] <= iter) |
                static_cast<std::uint64_t>(energy + delta < best_energy);
            const std::uint64_t keep = 0 - admissible;  // all-ones iff admissible
            const double c = std::bit_cast<double>(
                (std::bit_cast<std::uint64_t>(delta) & keep) | (inf_bits & ~keep));
            cand[i] = c;
            min_delta = c < min_delta ? c : min_delta;
        }
        if (min_delta == inf) {
            ++stall;  // everything tabu and nothing aspires
            continue;
        }
        std::size_t chosen = 0;
        while (cand[chosen] != min_delta) ++chosen;
        engine.force_flip(chosen);  // tabu search always moves, even uphill
        tabu_until[chosen] = iter + config_.tenure;
        if (engine.energy() < best_energy - 1e-12) {
            best_energy = engine.energy();
            best.assign(engine.state().begin(), engine.state().end());
            stall = 0;
        } else {
            ++stall;
        }
    }

    return best_energy;
}

}  // namespace hcq::solvers
