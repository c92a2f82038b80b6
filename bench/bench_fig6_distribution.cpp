// Figure 6 — "Average distribution of cost function value percentile out of
// 200,000-600,000 anneal samples of 20 instances of 36-variable decoding
// problems for different modulations and algorithms: (Left) forward
// annealing or QuAMax, (Center) reverse annealing starting at a randomly
// picked initial state, (Right) reverse annealing starting at the result
// state of greedy search (hybrid processing with the simplest classical
// solver)."
//
// Paper shape to reproduce: the RA(GS) panel concentrates its mass towards
// Delta-E% = 0, RA(random) is *worse* than FA (skewed to low quality).
#include <optional>
#include <vector>

#include "bench_common.h"
#include "classical/greedy.h"
#include "core/device.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "metrics/delta_e.h"
#include "metrics/histogram.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

namespace wl = hcq::wireless;
namespace an = hcq::anneal;
namespace hy = hcq::hybrid;

enum class algorithm { fa, ra_random, ra_greedy };

/// Collects Delta-E% for all reads of one algorithm on one instance at one s_p.
std::vector<double> run_samples(const an::annealer_emulator& device,
                                const hy::experiment_instance& e, algorithm algo, double sp,
                                std::size_t reads, hcq::util::rng& rng) {
    std::optional<hcq::qubo::bit_vector> initial;
    an::anneal_schedule schedule = an::anneal_schedule::forward(1.0, sp, 1.0);
    switch (algo) {
        case algorithm::fa:
            break;
        case algorithm::ra_random:
            schedule = an::anneal_schedule::reverse(sp, 1.0);
            initial = rng.bits(e.num_variables());
            break;
        case algorithm::ra_greedy: {
            schedule = an::anneal_schedule::reverse(sp, 1.0);
            initial = hcq::solvers::greedy_search().initialize(e.reduced.model, rng).bits;
            break;
        }
    }
    const auto samples = device.sample(e.reduced.model, schedule, reads, rng, initial);
    std::vector<double> gaps;
    gaps.reserve(samples.size());
    for (const auto& s : samples.all()) {
        gaps.push_back(hcq::metrics::delta_e_percent(s.energy, e.optimal_energy));
    }
    return gaps;
}

/// Picks the best s_p for an algorithm on one instance: highest ground-state
/// rate (the metric behind the paper's TTS), ties broken by mean Delta-E%.
double best_sp(const an::annealer_emulator& device, const hy::experiment_instance& e,
               algorithm algo, std::size_t calib_reads, std::uint64_t seed) {
    const auto grid = hy::paper_sp_grid();
    double best = grid.front();
    double best_rate = -1.0;
    double best_gap = 1e300;
    for (const double sp : grid) {
        double total = 0.0;
        std::size_t hits = 0;
        std::size_t count = 0;
        hcq::util::rng rng(seed);
        for (const double g : run_samples(device, e, algo, sp, calib_reads, rng)) {
            total += g;
            if (g <= 1e-9) ++hits;
            ++count;
        }
        const double rate = static_cast<double>(hits) / static_cast<double>(count);
        const double mean = total / static_cast<double>(count);
        if (rate > best_rate + 1e-12 ||
            (std::fabs(rate - best_rate) <= 1e-12 && mean < best_gap)) {
            best_rate = rate;
            best_gap = mean;
            best = sp;
        }
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    const hcq::bench::context ctx(argc, argv);
    ctx.banner("Figure 6: solution-quality distributions of FA / RA(random) / RA(GS)",
               "Kim et al., HotNets'20, Section 4.3 / Figure 6");

    const std::size_t instances = ctx.scaled(8);   // paper: 20
    const std::size_t reads = ctx.scaled(500);     // paper: 10,000+/setting
    const std::size_t calib_reads = ctx.scaled(80);
    const std::size_t num_vars = 36;

    const std::vector<algorithm> algos{algorithm::fa, algorithm::ra_random,
                                       algorithm::ra_greedy};

    for (const auto mod : wl::all_modulations()) {
        const std::size_t users = wl::users_for_variables(mod, num_vars);
        const auto corpus = hy::make_paper_corpus(ctx.seed, instances, users, mod);
        const an::annealer_emulator device;

        hcq::util::table t({"Delta-E% bin", "FA", "RA(random)", "RA(GS)"});
        hcq::metrics::histogram hists[3] = {hcq::metrics::histogram(0.0, 20.0, 10),
                                            hcq::metrics::histogram(0.0, 20.0, 10),
                                            hcq::metrics::histogram(0.0, 20.0, 10)};
        double means[3] = {0.0, 0.0, 0.0};
        double optimum_rate[3] = {0.0, 0.0, 0.0};
        double chosen_sp[3] = {0.0, 0.0, 0.0};

        hcq::util::pool_for_each(algos.size(), [&](std::size_t a) {
            const algorithm algo = algos[a];
            double total = 0.0;
            double sp_total = 0.0;
            std::size_t hits = 0;
            std::size_t count = 0;
            for (std::size_t i = 0; i < corpus.size(); ++i) {
                // Per-instance best parameter setting, as in the paper's
                // per-instance TTS comparisons.
                const double sp = best_sp(device, corpus[i], algo, calib_reads,
                                          hcq::util::rng(ctx.seed + a).derive(i)());
                sp_total += sp;
                hcq::util::rng rng(hcq::util::rng(ctx.seed + 100 + a).derive(i)());
                for (const double g : run_samples(device, corpus[i], algo, sp, reads, rng)) {
                    hists[a].add(g);
                    total += g;
                    if (g <= 1e-9) ++hits;
                    ++count;
                }
            }
            means[a] = total / static_cast<double>(count);
            optimum_rate[a] = static_cast<double>(hits) / static_cast<double>(count);
            chosen_sp[a] = sp_total / static_cast<double>(corpus.size());
        });

        std::cout << wl::to_string(mod) << " (" << users << " users, " << num_vars
                  << " variables, " << instances << " instances x " << reads
                  << " reads; mean best s_p: FA=" << chosen_sp[0]
                  << " RA(random)=" << chosen_sp[1] << " RA(GS)=" << chosen_sp[2] << ")\n";
        for (std::size_t b = 0; b < hists[0].num_bins(); ++b) {
            char label[64];
            std::snprintf(label, sizeof label, "[%.0f, %.0f)", hists[0].bin_lower(b),
                          hists[0].bin_lower(b) + hists[0].bin_width());
            t.add(label, hists[0].fraction(b), hists[1].fraction(b), hists[2].fraction(b));
        }
        t.add(">= 20", hists[0].fraction(hists[0].num_bins()),
              hists[1].fraction(hists[1].num_bins()), hists[2].fraction(hists[2].num_bins()));
        t.add("mean Delta-E%", means[0], means[1], means[2]);
        t.add("P(optimum)", optimum_rate[0], optimum_rate[1], optimum_rate[2]);
        ctx.emit(t);
    }

    std::cout << "Paper shape check: RA(GS) column concentrates at the lowest bins;\n"
                 "RA(random) carries more high-Delta-E mass than FA.\n";
    return 0;
}
