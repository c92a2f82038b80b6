// Wireless channel synthesis.
//
// The paper's experiments (Section 4.2) use "unit gain signal and unit gain
// wireless channel with random phase" and *exclude* AWGN; the library also
// provides i.i.d. Rayleigh fading and AWGN injection for the BER-oriented
// examples and for downstream users.
#ifndef HCQ_WIRELESS_CHANNEL_H
#define HCQ_WIRELESS_CHANNEL_H

#include "linalg/matrix.h"
#include "util/rng.h"
#include "wireless/modulation.h"

namespace hcq::wireless {

/// Channel fading models.
enum class channel_model {
    unit_gain_random_phase,  ///< H_ij = exp(j*theta), theta ~ U[0, 2pi)  (paper setup)
    rayleigh,                ///< H_ij ~ CN(0, 1)
};

/// "random-phase" / "rayleigh".
[[nodiscard]] const char* to_string(channel_model model) noexcept;

/// Draws an antennas x users channel matrix from the given model.
[[nodiscard]] linalg::cmat draw_channel(util::rng& rng, channel_model model,
                                        std::size_t num_antennas, std::size_t num_users);

/// draw_channel into a reused matrix (same draws, same elements).
void draw_channel_into(util::rng& rng, channel_model model, std::size_t num_antennas,
                       std::size_t num_users, linalg::cmat& h);

/// Adds circularly-symmetric complex Gaussian noise of total variance
/// `noise_variance` per receive dimension (i.e. CN(0, noise_variance)).
void add_awgn(util::rng& rng, linalg::cvec& y, double noise_variance);

/// Noise variance realising an average per-receive-antenna SNR of `snr_db`
/// for `num_users` transmitters of the given modulation through a unit-mean-
/// square-gain channel.  +inf dB gives 0 (noiseless).  Throws
/// std::invalid_argument on zero users, or when the variance is not finite:
/// a NaN SNR, or one so low (about -3000 dB) that 10^(snr/10) underflows.
[[nodiscard]] double noise_variance_for_snr(modulation mod, std::size_t num_users,
                                            double snr_db);

}  // namespace hcq::wireless

#endif  // HCQ_WIRELESS_CHANNEL_H
