// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "link/use_kernel.h"

#include "paths/workspace.h"
#include "util/timer.h"

namespace hcq::link {

use_kernel::use_kernel(const wireless::channel_spec& channel, wireless::modulation mod,
                       std::size_t num_users, bool noiseless, double snr_db, std::uint64_t seed)
    : est_err_(channel.est_err),
      process_(wireless::make_channel_process(channel, num_users, num_users,
                                              util::rng(seed).derive(stream_domains::fading))) {
    mimo_.mod = mod;
    mimo_.num_users = num_users;
    mimo_.num_antennas = num_users;
    mimo_.noise_variance =
        noiseless ? 0.0
                  : wireless::noise_variance_for_snr(mod, num_users, channel.snr_db.value_or(snr_db));
}

double use_kernel::synthesize(util::rng& rng, double t, std::span<const std::uint8_t> tx_bits,
                              wireless::mimo_instance& out) const {
    const util::timer clock;
    wireless::synthesize_at_coded_into(rng, mimo_, *process_, t, est_err_, tx_bits, out);
    return clock.elapsed_us();
}

double use_kernel::synthesize_given(util::rng& rng, const linalg::cmat& h_true,
                                    std::span<const std::uint8_t> tx_bits,
                                    wireless::mimo_instance& out) const {
    const util::timer clock;
    wireless::synthesize_given_coded_into(rng, mimo_, h_true, est_err_, tx_bits, out);
    return clock.elapsed_us();
}

double use_kernel::reduce(const wireless::mimo_instance& instance, paths::workspace& ws,
                          detect::ml_qubo& out) {
    const util::timer clock;
    detect::ml_to_qubo_into(instance, ws.detect.qubo, out);
    return clock.elapsed_us();
}

void use_kernel::detect(const paths::detection_path& path, const wireless::mimo_instance& instance,
                        const detect::ml_qubo* reduced, util::rng& rng, paths::workspace& ws,
                        bool soft, paths::path_result& out) {
    const paths::path_context ctx{instance, reduced, rng, &ws};
    path.run_into(ctx, out);
    if (soft) path.soft_output(ctx, out);
}

std::size_t use_kernel::bits_per_use() const noexcept {
    return mimo_.num_users * wireless::bits_per_symbol(mimo_.mod);
}

}  // namespace hcq::link
