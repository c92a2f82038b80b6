// Uplink multi-user MIMO detection instances: y = H x + n.
//
// An instance bundles everything a detector needs (channel, observation,
// modulation) plus the ground truth used for evaluation.  The paper's corpus
// (Section 4.2) is synthesised with `noiseless_paper_instance`.
#ifndef HCQ_WIRELESS_MIMO_H
#define HCQ_WIRELESS_MIMO_H

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"
#include "wireless/channel.h"
#include "wireless/channel_spec.h"
#include "wireless/modulation.h"

namespace hcq::wireless {

/// One detection problem y = H x (+ n) together with its ground truth.
struct mimo_instance {
    modulation mod = modulation::bpsk;
    std::size_t num_users = 0;     ///< transmit streams (N_t)
    std::size_t num_antennas = 0;  ///< receive antennas (N_r)
    linalg::cmat h;                ///< channel as the DETECTOR sees it (H_est)
    /// The channel the PHYSICS applied when imperfect CSI is in play
    /// (H_true; `h` is then the pilot estimate).  Empty == perfect CSI,
    /// h is the true channel.
    linalg::cmat h_true;
    std::vector<std::uint8_t> tx_bits;  ///< ground-truth bits (natural map)
    linalg::cvec tx_symbols;       ///< ground-truth symbols
    linalg::cvec y;                ///< received vector
    double noise_variance = 0.0;   ///< AWGN variance (0 = noiseless)
    double csi_error_variance = 0.0;  ///< per-entry variance of h - true_channel()

    /// The channel that generated `y`: `h_true` under imperfect CSI, `h`
    /// otherwise.
    [[nodiscard]] const linalg::cmat& true_channel() const noexcept {
        return h_true.empty() ? h : h_true;
    }

    /// Number of QUBO variables this instance reduces to.
    [[nodiscard]] std::size_t num_bits() const {
        return num_users * bits_per_symbol(mod);
    }

    /// Maximum-likelihood cost ||y - H x||^2 of a candidate symbol vector.
    [[nodiscard]] double ml_cost(const linalg::cvec& x) const;

    /// ml_cost with a caller-owned residual buffer — no allocation after
    /// warm-up.  Throws std::invalid_argument when x does not hold
    /// num_users symbols or y does not match the rows of h.
    double ml_cost(const linalg::cvec& x, linalg::cvec& residual_scratch) const;

    /// ML cost of a candidate bit string (natural map).
    [[nodiscard]] double ml_cost_bits(std::span<const std::uint8_t> bits) const;

    /// ml_cost_bits with caller-owned symbol and residual buffers.
    double ml_cost_bits(std::span<const std::uint8_t> bits, linalg::cvec& symbol_scratch,
                        linalg::cvec& residual_scratch) const;
};

/// Parameters for instance synthesis.
struct mimo_config {
    modulation mod = modulation::qam16;
    std::size_t num_users = 8;
    std::size_t num_antennas = 8;  ///< paper uses N_r = N_t
    channel_model channel = channel_model::unit_gain_random_phase;
    double noise_variance = 0.0;   ///< 0 disables AWGN (paper setting)
};

/// Draws a random instance: random channel, uniform random bits, y = Hx + n.
[[nodiscard]] mimo_instance synthesize(util::rng& rng, const mimo_config& config);

/// synthesize into a reused instance (same draws, same fields); a warmed-up
/// instance makes repeated synthesis allocation-free.
void synthesize_into(util::rng& rng, const mimo_config& config, mimo_instance& inst);

/// Synthesises an instance whose channel comes from `process` evaluated at
/// time `t` (channel uses) instead of `config.channel`, with optional
/// imperfect CSI: when `csi_error_variance > 0`, `y` is generated through
/// the true channel H(t) while `inst.h` becomes the pilot estimate
/// H(t) + E, E_ij ~ CN(0, csi_error_variance) (and `h_true` records H(t)).
///
/// Draw-order contract (the bit-compatibility invariant link goldens pin):
/// the per-use `rng` is consumed in the same order as `synthesize` —
/// channel draw first (i.i.d. processes only; correlated processes leave
/// the rng untouched), then tx bits, then AWGN — and the estimation-error
/// draws come LAST, only when csi_error_variance > 0.  Hence an i.i.d.
/// process with csi_error_variance == 0 is byte-identical to `synthesize`.
[[nodiscard]] mimo_instance synthesize_at(util::rng& rng, const mimo_config& config,
                                          const channel_process& process, double t,
                                          double csi_error_variance);

/// synthesize_into with the transmitted bits OVERRIDDEN by `tx_bits` — how
/// the coded link (src/fec) puts a frame's coded bits on the air.  Draw-
/// order contract: the rng is consumed EXACTLY as synthesize_into consumes
/// it — the uniform tx-bit draws still happen (and are discarded) — so the
/// channel and AWGN realisations of a coded use are byte-identical to the
/// uncoded use at the same stream index, making coded-vs-uncoded an A/B
/// comparison on identical channels.  Throws std::invalid_argument when
/// `tx_bits` is not num_users * bits_per_symbol(mod) long.
void synthesize_coded_into(util::rng& rng, const mimo_config& config,
                           std::span<const std::uint8_t> tx_bits, mimo_instance& inst);

/// synthesize_at into a reused instance, with the tx bits overridden as in
/// synthesize_coded_into (an empty `tx_bits` keeps the drawn bits).  Same
/// draw-order contract (estimation-error draws still strictly last).
void synthesize_at_coded_into(util::rng& rng, const mimo_config& config,
                              const channel_process& process, double t,
                              double csi_error_variance,
                              std::span<const std::uint8_t> tx_bits, mimo_instance& inst);

/// synthesize_at_coded_into through a true channel `h_true` the caller
/// already holds instead of a process evaluation.  The rng is consumed as
/// a correlated process consumes it (no channel draw), so when `h_true` is
/// H(t) of a correlated process the instance is bit-identical to
/// synthesize_at_coded_into at t.  Throws std::invalid_argument when
/// `h_true` is not num_antennas x num_users.
void synthesize_given_coded_into(util::rng& rng, const mimo_config& config,
                                 const linalg::cmat& h_true, double csi_error_variance,
                                 std::span<const std::uint8_t> tx_bits, mimo_instance& inst);

/// The exact corpus recipe of the paper: unit-gain random-phase channel,
/// N_r = N_t = num_users, no AWGN.
[[nodiscard]] mimo_instance noiseless_paper_instance(util::rng& rng, std::size_t num_users,
                                                     modulation mod);

/// Chooses (users, modulation) combinations giving `num_variables` QUBO
/// variables; throws if no modulation divides the requested size.
[[nodiscard]] std::size_t users_for_variables(modulation mod, std::size_t num_variables);

}  // namespace hcq::wireless

#endif  // HCQ_WIRELESS_MIMO_H
