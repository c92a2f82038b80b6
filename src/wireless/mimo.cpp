// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "wireless/mimo.h"

#include <cmath>
#include <stdexcept>

namespace hcq::wireless {

double mimo_instance::ml_cost(const linalg::cvec& x) const {
    linalg::cvec residual;
    return ml_cost(x, residual);
}

double mimo_instance::ml_cost(const linalg::cvec& x, linalg::cvec& residual_scratch) const {
    if (x.size() != num_users) throw std::invalid_argument("ml_cost: wrong symbol count");
    if (y.size() != h.rows()) throw std::invalid_argument("ml_cost: observation size mismatch");
    // residual = y - H x, with H x formed in the residual buffer itself.
    linalg::matvec_into(h, x, residual_scratch);
    for (std::size_t i = 0; i < residual_scratch.size(); ++i) {
        residual_scratch[i] = y[i] - residual_scratch[i];
    }
    const double n = residual_scratch.norm2();
    return n * n;
}

double mimo_instance::ml_cost_bits(std::span<const std::uint8_t> bits) const {
    linalg::cvec symbols;
    linalg::cvec residual;
    return ml_cost_bits(bits, symbols, residual);
}

double mimo_instance::ml_cost_bits(std::span<const std::uint8_t> bits,
                                   linalg::cvec& symbol_scratch,
                                   linalg::cvec& residual_scratch) const {
    modulate_into(mod, bits, symbol_scratch);
    return ml_cost(symbol_scratch, residual_scratch);
}

namespace {

/// The one channel-use body behind every synthesis form.  Per-use draw
/// order (the bit-compatibility contract the link goldens pin): the channel
/// first (`draw_channel`, which writes H into its argument), then the tx
/// bits, then AWGN, then the estimation error, only when
/// csi_error_variance > 0.  The uniform bit draws ALWAYS happen (they pace
/// the stream), and a non-empty `tx_bits` then replaces them, so a coded
/// use consumes the rng exactly like an uncoded one.
template <typename DrawChannel>
void synthesize_use(util::rng& rng, const mimo_config& config, double csi_error_variance,
                    std::span<const std::uint8_t> tx_bits, mimo_instance& inst,
                    DrawChannel&& draw_channel) {
    if (config.num_users == 0 || config.num_antennas == 0) {
        throw std::invalid_argument("synthesize: empty dimensions");
    }
    if (config.num_antennas < config.num_users) {
        throw std::invalid_argument("synthesize: needs num_antennas >= num_users");
    }
    if (csi_error_variance < 0.0) {
        throw std::invalid_argument("synthesize: negative csi_error_variance");
    }
    inst.mod = config.mod;
    inst.num_users = config.num_users;
    inst.num_antennas = config.num_antennas;
    draw_channel(inst.h);
    inst.h_true.resize(0, 0);  // perfect CSI: true_channel() is h
    inst.csi_error_variance = 0.0;
    const std::size_t num_bits = config.num_users * bits_per_symbol(config.mod);
    rng.bits_into(num_bits, inst.tx_bits);
    if (!tx_bits.empty()) {
        if (tx_bits.size() != num_bits) {
            throw std::invalid_argument("synthesize: tx-bit override has wrong length");
        }
        inst.tx_bits.assign(tx_bits.begin(), tx_bits.end());
    }
    modulate_into(config.mod, inst.tx_bits, inst.tx_symbols);
    linalg::matvec_into(inst.h, inst.tx_symbols, inst.y);
    inst.noise_variance = config.noise_variance;
    add_awgn(rng, inst.y, config.noise_variance);
    if (csi_error_variance > 0.0) {
        inst.h_true = inst.h;  // vector copy-assign: reuses capacity
        inst.csi_error_variance = csi_error_variance;
        const double sigma_per_dim = std::sqrt(csi_error_variance / 2.0);
        for (std::size_t r = 0; r < inst.h.rows(); ++r) {
            for (std::size_t c = 0; c < inst.h.cols(); ++c) {
                inst.h(r, c) += linalg::cxd(rng.normal(0.0, sigma_per_dim),
                                            rng.normal(0.0, sigma_per_dim));
            }
        }
    }
}

}  // namespace

mimo_instance synthesize(util::rng& rng, const mimo_config& config) {
    mimo_instance inst;
    synthesize_into(rng, config, inst);
    return inst;
}

void synthesize_into(util::rng& rng, const mimo_config& config, mimo_instance& inst) {
    synthesize_coded_into(rng, config, {}, inst);
}

void synthesize_coded_into(util::rng& rng, const mimo_config& config,
                           std::span<const std::uint8_t> tx_bits, mimo_instance& inst) {
    synthesize_use(rng, config, 0.0, tx_bits, inst, [&](linalg::cmat& h) {
        draw_channel_into(rng, config.channel, config.num_antennas, config.num_users, h);
    });
}

mimo_instance synthesize_at(util::rng& rng, const mimo_config& config,
                            const channel_process& process, double t,
                            double csi_error_variance) {
    mimo_instance inst;
    synthesize_at_coded_into(rng, config, process, t, csi_error_variance, {}, inst);
    return inst;
}

void synthesize_at_coded_into(util::rng& rng, const mimo_config& config,
                              const channel_process& process, double t,
                              double csi_error_variance,
                              std::span<const std::uint8_t> tx_bits, mimo_instance& inst) {
    if (process.num_antennas() != config.num_antennas ||
        process.num_users() != config.num_users) {
        throw std::invalid_argument("synthesize_at: process dimensions mismatch config");
    }
    synthesize_use(rng, config, csi_error_variance, tx_bits, inst,
                   [&](linalg::cmat& h) { process.at_into(t, rng, h); });
}

void synthesize_given_coded_into(util::rng& rng, const mimo_config& config,
                                 const linalg::cmat& h_true, double csi_error_variance,
                                 std::span<const std::uint8_t> tx_bits, mimo_instance& inst) {
    if (h_true.rows() != config.num_antennas || h_true.cols() != config.num_users) {
        throw std::invalid_argument("synthesize_given: channel dimensions mismatch config");
    }
    synthesize_use(rng, config, csi_error_variance, tx_bits, inst,
                   [&](linalg::cmat& h) { h = h_true; });
}

mimo_instance noiseless_paper_instance(util::rng& rng, std::size_t num_users, modulation mod) {
    mimo_config config;
    config.mod = mod;
    config.num_users = num_users;
    config.num_antennas = num_users;
    config.channel = channel_model::unit_gain_random_phase;
    config.noise_variance = 0.0;
    return synthesize(rng, config);
}

std::size_t users_for_variables(modulation mod, std::size_t num_variables) {
    const std::size_t per = bits_per_symbol(mod);
    if (num_variables == 0 || num_variables % per != 0) {
        throw std::invalid_argument("users_for_variables: " + std::to_string(num_variables) +
                                    " variables not divisible by " + to_string(mod));
    }
    return num_variables / per;
}

}  // namespace hcq::wireless
