// Headline claim (abstract / Sections 1 and 4.3) — "for an eight-user,
// 16-QAM detection/decoding problem, our version of RA achieves
// approximately up to 10x higher success probability than the previously
// published results for FA", and "approximately 2-10x better performance in
// terms of processing time".
//
// Part A runs the headline workload (8-user 16-QAM): per instance, the
// best-parameter FA is compared against the best-parameter hybrid GS+RA
// (classical GS time amortised per read) on success probability and TTS.
// Part B repeats the comparison across all four modulations at 36 variables
// (the Figure-6 corpus recipe).
#include <algorithm>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "classical/greedy.h"
#include "core/device.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "metrics/delta_e.h"
#include "metrics/stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

namespace an = hcq::anneal;
namespace hy = hcq::hybrid;
namespace wl = hcq::wireless;

struct outcome {
    double fa_p = 0.0;
    double fa_tts = std::numeric_limits<double>::infinity();
    double ra_p = 0.0;
    double ra_tts = std::numeric_limits<double>::infinity();

    [[nodiscard]] double speedup() const { return fa_tts / ra_tts; }
    [[nodiscard]] double p_ratio() const { return fa_p > 0.0 ? ra_p / fa_p : 0.0; }
};

outcome best_parameter_duel(const an::annealer_emulator& device,
                            const hy::experiment_instance& e, std::size_t reads,
                            hcq::util::rng& rng) {
    const auto gs = hcq::solvers::greedy_search().initialize(e.reduced.model, rng);
    const double gs_us_per_read =
        gs.elapsed_us / static_cast<double>(std::max<std::size_t>(1, reads));
    outcome best;
    for (const double sp : hy::paper_sp_grid()) {
        const auto fa = hy::evaluate_schedule(device, e.reduced.model,
                                              an::anneal_schedule::forward(1.0, sp, 1.0), reads,
                                              e.optimal_energy, rng);
        if (fa.tts_us < best.fa_tts) {
            best.fa_tts = fa.tts_us;
            best.fa_p = fa.p_star;
        }
        const auto schedule = an::anneal_schedule::reverse(sp, 1.0);
        const auto ra = hy::evaluate_schedule(device, e.reduced.model, schedule, reads,
                                              e.optimal_energy, rng, gs.bits);
        const double duration = schedule.duration_us() + gs_us_per_read;
        const double tts = ra.p_star > 0.0 ? hy::time_to_solution_us(duration, ra.p_star)
                                           : std::numeric_limits<double>::infinity();
        if (tts < best.ra_tts) {
            best.ra_tts = tts;
            best.ra_p = ra.p_star;
        }
    }
    return best;
}

std::string fmt_or_inf(double v, int precision = 1) {
    return std::isinf(v) ? "inf" : hcq::util::format_double(v, precision);
}

}  // namespace

int main(int argc, char** argv) {
    const hcq::bench::context ctx(argc, argv);
    ctx.banner("Headline: best-parameter hybrid GS+RA vs best-parameter FA",
               "Kim et al., HotNets'20, abstract + Section 4.3");

    const std::size_t instances = ctx.scaled(8);
    const std::size_t reads = ctx.scaled(300);
    const an::annealer_emulator device;

    // --- Part A: the paper's headline workload, 8-user 16-QAM. ---
    std::cout << "[A] 8-user 16-QAM (32 variables), " << instances << " instances, " << reads
              << " reads/setting\n";
    {
        const auto corpus =
            hy::make_paper_corpus(ctx.seed + 500, instances, 8, wl::modulation::qam16);
        std::vector<outcome> outcomes(instances);
        hcq::util::pool_for_each(instances, [&](std::size_t i) {
            hcq::util::rng rng(hcq::util::rng(ctx.seed + 17).derive(i)());
            outcomes[i] = best_parameter_duel(device, corpus[i], reads, rng);
        });

        hcq::util::table t({"instance", "FA p*", "FA TTS us", "GS+RA p*", "GS+RA TTS us",
                            "TTS speedup x", "p* ratio x"});
        hcq::metrics::running_stats speedups;
        double max_ratio = 0.0;
        std::size_t wins = 0;
        for (std::size_t i = 0; i < instances; ++i) {
            const auto& o = outcomes[i];
            t.add(i, o.fa_p, fmt_or_inf(o.fa_tts), o.ra_p, fmt_or_inf(o.ra_tts),
                  fmt_or_inf(o.speedup(), 2), hcq::util::format_double(o.p_ratio(), 2));
            if (!std::isinf(o.speedup()) && !std::isnan(o.speedup())) {
                speedups.add(o.speedup());
                if (o.speedup() > 1.0) ++wins;
            }
            max_ratio = std::max(max_ratio, o.p_ratio());
        }
        ctx.emit(t);
        std::cout << "hybrid wins TTS on " << wins << "/" << instances
                  << " instances; mean speedup " << hcq::util::format_double(speedups.mean(), 2)
                  << "x, max " << hcq::util::format_double(speedups.max(), 2)
                  << "x; max success-probability ratio "
                  << hcq::util::format_double(max_ratio, 2) << "x (paper: up to ~10x)\n\n";
    }

    // --- Part B: all modulations at 36 variables (Figure-6 recipe). ---
    std::cout << "[B] 36-variable corpus per modulation, " << instances << " instances each\n";
    hcq::util::table t({"modulation", "FA mean p*", "GS+RA mean p*", "mean TTS speedup x",
                        "hybrid TTS wins"});
    for (const auto mod : wl::all_modulations()) {
        const std::size_t users = wl::users_for_variables(mod, 36);
        const auto corpus = hy::make_paper_corpus(ctx.seed + static_cast<std::uint64_t>(mod),
                                                  instances, users, mod);
        std::vector<outcome> outcomes(instances);
        hcq::util::pool_for_each(instances, [&](std::size_t i) {
            hcq::util::rng rng(hcq::util::rng(ctx.seed + 29).derive(i)());
            outcomes[i] = best_parameter_duel(device, corpus[i], reads, rng);
        });
        hcq::metrics::running_stats fa_p, ra_p, speedups;
        std::size_t wins = 0;
        for (const auto& o : outcomes) {
            fa_p.add(o.fa_p);
            ra_p.add(o.ra_p);
            if (!std::isinf(o.speedup()) && !std::isnan(o.speedup())) {
                speedups.add(o.speedup());
                if (o.speedup() > 1.0) ++wins;
            }
        }
        t.add(wl::to_string(mod), fa_p.mean(), ra_p.mean(),
              speedups.count() > 0 ? hcq::util::format_double(speedups.mean(), 2) : "-",
              std::to_string(wins) + "/" + std::to_string(instances));
    }
    ctx.emit(t);
    std::cout << "Paper shape check: the hybrid attains better TTS than FA on most 16-QAM\n"
                 "instances with success-probability ratios well above 1 (paper: up to ~10x\n"
                 "on hardware); easy corpora (BPSK/QPSK) saturate at p* ~ 1 where no method\n"
                 "can beat a single read.  See EXPERIMENTS.md for the honest deltas.\n";
    return 0;
}
