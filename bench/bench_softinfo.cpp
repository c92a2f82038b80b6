// Section 3.1, second initial attempt — "Soft information to narrow the
// search space" (Figure 4): add constraint terms from pre-knowledge (LLRs)
// so the search avoids unlikely symbols.  The paper found that "it is
// difficult to find proper constraint factors ... and our empirical
// investigations have shown that it is not currently practical."
//
// This bench quantifies that verdict.  On noisy 3-user 16-QAM problems
// (small enough to brute-force) it sweeps the constraint strength C and
// reports, per C:
//   * how often the injected priors *relocate* the global optimum away from
//     the true ML solution (the correctness hazard),
//   * the annealer's probability of returning the true ML solution when
//     solving the constrained QUBO,
// using LLR-derived priors on the most confident symbols — the best case
// for the scheme.
#include <span>
#include <vector>

#include "bench_common.h"
#include "core/device.h"
#include "core/schedule.h"
#include "detect/sphere.h"
#include "detect/transform.h"
#include "metrics/stats.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "qubo/brute_force.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wireless/soft.h"

namespace {

namespace an = hcq::anneal;
namespace wl = hcq::wireless;
namespace dt = hcq::detect;

struct strength_result {
    hcq::metrics::running_stats optimum_moved;   // 1 if priors relocated the optimum
    hcq::metrics::running_stats anneal_success;  // P(annealer returns true ML bits)
    hcq::metrics::running_stats prior_accuracy;  // fraction of prior bits that are correct
};

}  // namespace

int main(int argc, char** argv) {
    const hcq::bench::context ctx(argc, argv);
    ctx.banner("Section 3.1 soft-information constraints: the tuning hazard, quantified",
               "Kim et al., HotNets'20, Section 3.1 / Figure 4");

    const std::size_t instances = ctx.scaled(12);
    const std::size_t reads = ctx.scaled(150);
    const double snr_db = ctx.flags.get_double("snr", 14.0);
    const std::size_t users = 3;  // 12 variables: exhaustively verifiable

    // Constraint strength as a fraction of the QUBO's own scale.
    const std::vector<double> strengths{0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};
    std::vector<strength_result> results(strengths.size());
    const an::annealer_emulator device;
    const auto zf_path = hcq::paths::registry::make("zf");

    hcq::util::pool_for_each(strengths.size(), [&](std::size_t k) {
        hcq::paths::workspace ws;  // one per task: pool_for_each runs tasks concurrently
        for (std::size_t i = 0; i < instances; ++i) {
            hcq::util::rng rng(hcq::util::rng(ctx.seed + 11 * k).derive(i)());
            wl::mimo_config config;
            config.mod = wl::modulation::qam16;
            config.num_users = users;
            config.num_antennas = users;
            config.channel = wl::channel_model::unit_gain_random_phase;
            config.noise_variance = wl::noise_variance_for_snr(config.mod, users, snr_db);
            const auto inst = wl::synthesize(rng, config);

            // True ML solution by exact search (noise may move it off tx).
            const auto ml = dt::sphere_detector().detect(inst);

            // LLR priors from the unified path-level soft output (the "zf"
            // path's post-equalisation max-log LLRs); apply to the single
            // most confident symbol.  The LLR vector uses THE canonical bit
            // layout asserted in wireless/soft.h — user-major, and within a
            // user the I-dimension bits MSB-first then the Q-dimension bits
            // MSB-first — so llrs[u * bps + b] is bit b of user u, aligned
            // index-for-index with ml.bits.
            auto mq = dt::ml_to_qubo(inst);
            auto det = zf_path->run({inst, nullptr, rng, &ws});
            zf_path->soft_output({inst, nullptr, rng, &ws}, det);
            const auto& llrs = det.llrs;
            const std::size_t bps = wl::bits_per_symbol(inst.mod);
            std::size_t best_user = 0;
            double best_conf = -1.0;
            for (std::size_t u = 0; u < users; ++u) {
                double conf = 0.0;
                for (std::size_t b = 0; b < bps; ++b) conf += std::fabs(llrs[u * bps + b]);
                if (conf > best_conf) {
                    best_conf = conf;
                    best_user = u;
                }
            }
            std::vector<std::uint8_t> pattern;
            wl::harden_into(std::span(llrs).subspan(best_user * bps, bps), pattern);
            std::size_t correct = 0;
            for (std::size_t b = 0; b < bps; ++b) {
                if (pattern[b] == ml.bits[best_user * bps + b]) ++correct;
            }
            results[k].prior_accuracy.add(static_cast<double>(correct) /
                                          static_cast<double>(bps));

            const double c = strengths[k] * mq.model.max_abs_coefficient();
            if (c > 0.0) dt::apply_symbol_prior(mq, best_user, pattern, c);

            // Hazard: did the constrained QUBO's optimum move off the ML bits?
            const auto exact = hcq::qubo::brute_force_minimize(mq.model);
            results[k].optimum_moved.add(exact.best_bits == ml.bits ? 0.0 : 1.0);

            // Annealer success on the constrained problem, judged vs ML bits.
            const auto samples = device.sample(
                mq.model, an::anneal_schedule::forward(1.0, 0.33, 1.0), reads, rng);
            std::size_t hits = 0;
            for (const auto& s : samples.all()) {
                if (s.bits == ml.bits) ++hits;
            }
            results[k].anneal_success.add(static_cast<double>(hits) /
                                          static_cast<double>(reads));
        }
    });

    hcq::util::table t({"C (rel max|Q|)", "P(optimum relocated)", "FA P(true ML bits)",
                        "prior bit accuracy"});
    for (std::size_t k = 0; k < strengths.size(); ++k) {
        t.add(strengths[k], results[k].optimum_moved.mean(), results[k].anneal_success.mean(),
              results[k].prior_accuracy.mean());
    }
    std::cout << instances << " noisy " << users << "-user 16-QAM instances at SNR = " << snr_db
              << " dB, priors on the most confident symbol, " << reads << " reads\n";
    ctx.emit(t);
    std::cout << "Paper shape check: there is no safe-and-useful strength — small C barely\n"
                 "changes the search, while C large enough to matter starts relocating the\n"
                 "global optimum whenever a prior bit is wrong (Section 3.1: 'not currently\n"
                 "practical').\n";
    return 0;
}
