// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "wireless/channel.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace hcq::wireless {

const char* to_string(channel_model model) noexcept {
    switch (model) {
        case channel_model::unit_gain_random_phase: return "random-phase";
        case channel_model::rayleigh: return "rayleigh";
    }
    return "?";
}

linalg::cmat draw_channel(util::rng& rng, channel_model model, std::size_t num_antennas,
                          std::size_t num_users) {
    linalg::cmat h;
    draw_channel_into(rng, model, num_antennas, num_users, h);
    return h;
}

void draw_channel_into(util::rng& rng, channel_model model, std::size_t num_antennas,
                       std::size_t num_users, linalg::cmat& h) {
    if (num_antennas == 0 || num_users == 0) {
        throw std::invalid_argument("draw_channel: empty dimensions");
    }
    h.resize(num_antennas, num_users);
    for (std::size_t r = 0; r < num_antennas; ++r) {
        for (std::size_t c = 0; c < num_users; ++c) {
            switch (model) {
                case channel_model::unit_gain_random_phase: {
                    const double theta = rng.angle();
                    h(r, c) = linalg::cxd(std::cos(theta), std::sin(theta));
                    break;
                }
                case channel_model::rayleigh: {
                    h(r, c) = linalg::cxd(rng.normal() / std::sqrt(2.0),
                                          rng.normal() / std::sqrt(2.0));
                    break;
                }
            }
        }
    }
}

void add_awgn(util::rng& rng, linalg::cvec& y, double noise_variance) {
    if (noise_variance < 0.0) throw std::invalid_argument("add_awgn: negative variance");
    if (noise_variance == 0.0) return;
    const double sigma_per_dim = std::sqrt(noise_variance / 2.0);
    for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] += linalg::cxd(rng.normal(0.0, sigma_per_dim), rng.normal(0.0, sigma_per_dim));
    }
}

double noise_variance_for_snr(modulation mod, std::size_t num_users, double snr_db) {
    if (num_users == 0) throw std::invalid_argument("noise_variance_for_snr: no users");
    const double signal_power = static_cast<double>(num_users) * mean_symbol_energy(mod);
    const double snr_linear = std::pow(10.0, snr_db / 10.0);
    const double variance = signal_power / snr_linear;
    // NaN dB, or an SNR so low that 10^(snr/10) underflows to 0, would
    // otherwise hand the detectors NaN or infinite noise.
    if (!std::isfinite(variance)) {
        throw std::invalid_argument("noise_variance_for_snr: SNR " + std::to_string(snr_db) +
                                    " dB gives a non-finite noise variance");
    }
    return variance;
}

}  // namespace hcq::wireless
