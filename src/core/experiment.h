// Paper-setup experiment corpus (Section 4.2): random MIMO detection
// instances with unit-gain random-phase channels, N_r = N_t users, no AWGN,
// reduced to QUBO form; plus the initial-state harvesting used by the
// initial-state-quality studies (Figures 7 and 8).
//
// In the noiseless setup the transmitted bits are a zero-residual ML
// solution, so the QUBO optimum is known by construction:
//     E_g = energy(tx_bits) = -offset   (since energy + offset = ||y-Hx||^2
//                                        and the residual is 0).
// `verify_ground_truth` checks this identity, and the test suite
// additionally cross-checks against the exact sphere decoder.
#ifndef HCQ_CORE_EXPERIMENT_H
#define HCQ_CORE_EXPERIMENT_H

#include <cstdint>
#include <vector>

#include "core/device.h"
#include "detect/transform.h"
#include "qubo/model.h"
#include "util/rng.h"
#include "wireless/mimo.h"

namespace hcq::hybrid {

/// One ready-to-solve paper instance.
struct experiment_instance {
    wireless::mimo_instance instance;
    detect::ml_qubo reduced;
    qubo::bit_vector optimal_bits;
    double optimal_energy = 0.0;

    [[nodiscard]] std::size_t num_variables() const { return reduced.model.num_variables(); }
};

/// Synthesises one instance of the paper's corpus recipe.
[[nodiscard]] experiment_instance make_paper_instance(util::rng& rng, std::size_t num_users,
                                                      wireless::modulation mod);

/// `count` deterministic instances: instance i is made from
/// util::rng(seed).derive(i).  Built on util::pool_for_each; every instance
/// owns its stream and its slot, so the corpus is the same at any thread
/// count.
[[nodiscard]] std::vector<experiment_instance> make_paper_corpus(std::uint64_t seed,
                                                                 std::size_t count,
                                                                 std::size_t num_users,
                                                                 wireless::modulation mod);

/// Checks the zero-residual identity |energy(optimal) + offset| <= tol.
[[nodiscard]] bool verify_ground_truth(const experiment_instance& e, double tolerance = 1e-6);

/// Initial states binned by quality Delta-E_IS% (paper Figure 7: bins of
/// width delta, states below max_percent considered).
struct quality_binned_states {
    double bin_width_percent = 2.0;
    double max_percent = 10.0;
    /// states[b] holds initial states with Delta-E_IS% in
    /// [b*width, (b+1)*width).
    std::vector<std::vector<qubo::bit_vector>> states;

    [[nodiscard]] std::size_t num_bins() const { return states.size(); }
    [[nodiscard]] std::size_t total() const;
};

/// Harvests candidate initial states by random perturbation walks away from
/// the optimum plus uniform sampling, keeping those with Delta-E_IS% below
/// `max_percent`.  Cheap and deterministic in budget, but perturbation
/// states are not locally relaxed — their wrong bits are often trivial to
/// repair regardless of the bin, so prefer `harvest_annealer_states` for the
/// Figure-7/8 quality studies.
[[nodiscard]] quality_binned_states harvest_initial_states(const experiment_instance& e,
                                                           double bin_width_percent,
                                                           double max_percent,
                                                           std::size_t attempts,
                                                           util::rng& rng);

/// Harvests candidate initial states the way the paper does (Section 4.3:
/// "We obtain sample states of various Delta-E_IS% using over 750,000
/// samples"): forward-anneal the device across a range of pause locations
/// and bin the measured states by quality.  Annealer samples are locally
/// relaxed, so bins correlate with genuine repair difficulty.
[[nodiscard]] quality_binned_states harvest_annealer_states(
    const experiment_instance& e, const anneal::annealer_emulator& device,
    double bin_width_percent, double max_percent, std::size_t reads_per_setting,
    util::rng& rng);

}  // namespace hcq::hybrid

#endif  // HCQ_CORE_EXPERIMENT_H
