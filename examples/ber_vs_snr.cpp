// BER-vs-SNR comparison of the library's detectors on a noisy uplink —
// the workload the paper's introduction motivates (spatial multiplexing
// needs near-optimal detectors to pay off).
//
// Runs ZF, MMSE, K-best, FCSD, the exact sphere decoder, and the hybrid
// GS+RA structure over an AWGN Rayleigh channel and prints bit error rates
// per SNR point.
//
// Usage: ./examples/ber_vs_snr [--frames=N] [--users=N]
#include <iostream>
#include <memory>
#include <vector>

#include "classical/greedy.h"
#include "core/device.h"
#include "core/hybrid_solver.h"
#include "detect/fcsd.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/sphere.h"
#include "detect/transform.h"
#include "metrics/ber.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "wireless/mimo.h"

int main(int argc, char** argv) {
    using namespace hcq;
    const util::flag_set flags(argc, argv);
    const std::size_t frames = flags.get_size("frames", 150);
    const std::size_t users = flags.get_size("users", 4);
    const auto mod = wireless::modulation::qam16;

    std::vector<std::unique_ptr<detect::detector>> detectors;
    detectors.push_back(std::make_unique<detect::zf_detector>());
    detectors.push_back(std::make_unique<detect::mmse_detector>());
    detectors.push_back(std::make_unique<detect::kbest_detector>(8));
    detectors.push_back(std::make_unique<detect::fcsd_detector>(1));
    detectors.push_back(std::make_unique<detect::sphere_detector>());

    std::vector<std::string> headers{"SNR dB"};
    for (const auto& d : detectors) headers.push_back(d->name());
    headers.push_back("GS+RA");
    util::table t(std::move(headers));

    const solvers::greedy_search greedy;
    const anneal::annealer_emulator device;

    std::cout << users << "x" << users << " " << wireless::to_string(mod) << ", Rayleigh + AWGN, "
              << frames << " frames per SNR point\n\n";

    for (const double snr_db : {8.0, 12.0, 16.0, 20.0, 24.0}) {
        std::vector<metrics::ber_counter> frame_counters(frames * (detectors.size() + 1));

        util::pool_for_each(frames, [&](std::size_t f) {
            util::rng rng(util::rng(99).derive(f * 100 + static_cast<std::size_t>(snr_db))());
            wireless::mimo_config config;
            config.mod = mod;
            config.num_users = users;
            config.num_antennas = users;
            config.channel = wireless::channel_model::rayleigh;
            config.noise_variance = wireless::noise_variance_for_snr(mod, users, snr_db);
            const auto inst = wireless::synthesize(rng, config);

            for (std::size_t d = 0; d < detectors.size(); ++d) {
                const auto result = detectors[d]->detect(inst);
                frame_counters[f * (detectors.size() + 1) + d].add_frame(inst.tx_bits,
                                                                         result.bits);
            }
            // Hybrid GS+RA on the same frame (s_p = 0.29: the refinement
            // window for 16-variable problems sits lower than for the
            // 32-variable Figure-8 workload).
            const auto mq = detect::ml_to_qubo(inst);
            const hybrid::hybrid_solver solver(greedy, device,
                                               anneal::anneal_schedule::reverse(0.29, 1.0), 80);
            const auto hybrid_result = solver.solve(mq.model, rng);
            frame_counters[f * (detectors.size() + 1) + detectors.size()].add_frame(
                inst.tx_bits, hybrid_result.best_bits);
        });
        // Aggregate (serial; counters are tiny).
        std::vector<std::string> row{util::format_double(snr_db, 0)};
        for (std::size_t d = 0; d <= detectors.size(); ++d) {
            std::size_t errors = 0;
            std::size_t total = 0;
            for (std::size_t f = 0; f < frames; ++f) {
                const auto& fc = frame_counters[f * (detectors.size() + 1) + d];
                errors += fc.errors();
                total += fc.total_bits();
            }
            row.push_back(util::format_double(
                total > 0 ? static_cast<double>(errors) / static_cast<double>(total) : 0.0, 5));
        }
        t.add_row(row);
    }
    t.print(std::cout);
    std::cout << "\nExpected ordering: SD (exact ML) lowest BER; GS+RA tracks SD closely;\n"
                 "K-best/FCSD between linear and exact; ZF worst at low SNR.\n";
    return 0;
}
