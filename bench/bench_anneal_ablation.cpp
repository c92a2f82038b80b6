// Emulator design-choice ablations (DESIGN.md "Hardware substitution").
//
// The annealer emulator substitutes the D-Wave 2000Q; its design parameters
// are not free lunch and this bench quantifies each one on the Figure-8
// workload (8-user 16-QAM, RA from GS + FA baseline at a fixed good s_p):
//   * temperature-map family (rational^2 vs rational^1 vs linear vs exp),
//   * sweeps-per-microsecond (dynamics granularity),
//   * freeze fraction (frozen-register threshold) — including freeze=0,
//     which silently turns every schedule into a greedy descent polisher
//     and destroys the s_p structure the paper measures,
//   * pause benefit: t_p = 1 us vs t_p = 0 (Section 4.2 cites the pause
//     literature [26, 29, 36, 52]).
#include <vector>

#include "bench_common.h"
#include "classical/greedy.h"
#include "core/device.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "metrics/stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

namespace an = hcq::anneal;
namespace hy = hcq::hybrid;
namespace wl = hcq::wireless;

struct variant {
    std::string name;
    an::annealer_config config;
    double t_p = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
    const hcq::bench::context ctx(argc, argv);
    ctx.banner("Annealer-emulator ablation: temperature map, sweep rate, freezing, pause",
               "DESIGN.md hardware-substitution choices; paper Sections 4.1-4.3");

    const std::size_t instances = ctx.scaled(3);
    const std::size_t reads = ctx.scaled(250);

    std::vector<variant> variants;
    {
        variant v;
        v.name = "default (rational^2, 24 sw/us, freeze 0.002)";
        variants.push_back(v);

        v = variant{};
        v.name = "map rational^1";
        v.config.map = an::temperature_map(an::temperature_map_kind::rational, 3.0, 0.02, 1.0);
        variants.push_back(v);

        v = variant{};
        v.name = "map linear";
        v.config.map = an::temperature_map(an::temperature_map_kind::linear);
        variants.push_back(v);

        v = variant{};
        v.name = "map exponential(g=6)";
        v.config.map = an::temperature_map(an::temperature_map_kind::exponential, 6.0);
        variants.push_back(v);

        v = variant{};
        v.name = "sweeps/us = 8";
        v.config.sweeps_per_us = 8.0;
        variants.push_back(v);

        v = variant{};
        v.name = "sweeps/us = 96";
        v.config.sweeps_per_us = 96.0;
        variants.push_back(v);

        v = variant{};
        v.name = "freeze = 0 (descent allowed at s=1)";
        v.config.freeze_fraction = 0.0;
        variants.push_back(v);

        v = variant{};
        v.name = "freeze = 0.01 (early freeze)";
        v.config.freeze_fraction = 0.01;
        variants.push_back(v);

        v = variant{};
        v.name = "no pause (t_p = 0)";
        v.t_p = 0.0;
        variants.push_back(v);
    }

    hcq::util::table t({"variant", "RA(GS) p* @best sp", "best sp", "RA(GS) p* @sp=0.97",
                        "FA p* @best sp", "RA window contrast"});

    std::vector<std::array<double, 4>> results(variants.size());
    hcq::util::pool_for_each(variants.size(), [&](std::size_t v) {
        const an::annealer_emulator device(variants[v].config);
        const double tp = variants[v].t_p;
        hcq::metrics::running_stats ra_best, fa_best, ra_high;
        double best_sp_acc = 0.0;
        for (std::size_t i = 0; i < instances; ++i) {
            hcq::util::rng rng(hcq::util::rng(ctx.seed + 3 * v).derive(i)());
            const auto e = hy::make_paper_instance(rng, 8, wl::modulation::qam16);
            const auto gs = hcq::solvers::greedy_search().initialize(e.reduced.model, rng);
            double best_ra = 0.0;
            double best_fa = 0.0;
            double best_sp = 0.0;
            for (const double sp : {0.21, 0.29, 0.37, 0.45, 0.53, 0.61}) {
                const auto ra = hy::evaluate_schedule(device, e.reduced.model,
                                                      an::anneal_schedule::reverse(sp, tp),
                                                      reads, e.optimal_energy, rng, gs.bits);
                if (ra.p_star > best_ra) {
                    best_ra = ra.p_star;
                    best_sp = sp;
                }
                const auto fa = hy::evaluate_schedule(
                    device, e.reduced.model,
                    tp > 0.0 ? an::anneal_schedule::forward(1.0, sp, tp)
                             : an::anneal_schedule::forward_plain(1.0),
                    reads, e.optimal_energy, rng);
                best_fa = std::max(best_fa, fa.p_star);
            }
            const auto high = hy::evaluate_schedule(device, e.reduced.model,
                                                    an::anneal_schedule::reverse(0.97, tp),
                                                    reads, e.optimal_energy, rng, gs.bits);
            ra_best.add(best_ra);
            fa_best.add(best_fa);
            ra_high.add(high.p_star);
            best_sp_acc += best_sp;
        }
        results[v] = {ra_best.mean(), best_sp_acc / static_cast<double>(instances),
                      ra_high.mean(), fa_best.mean()};
    });

    for (std::size_t v = 0; v < variants.size(); ++v) {
        const double contrast =
            results[v][2] > 0.0 ? results[v][0] / results[v][2]
                                : (results[v][0] > 0.0 ? std::numeric_limits<double>::infinity()
                                                       : 1.0);
        t.add(variants[v].name, results[v][0], results[v][1], results[v][2], results[v][3],
              std::isinf(contrast) ? "inf" : hcq::util::format_double(contrast, 1));
    }
    ctx.emit(t);
    std::cout << "Design check: the default keeps a strong RA window contrast (success at\n"
                 "mid s_p, failure at s_p ~ 1) while holding FA weak, as on hardware.\n"
                 "freeze = 0 hands FA a free descent polish (its p* inflates vs default) —\n"
                 "the reason frozen-register semantics exist.  Linear/exponential maps lack\n"
                 "the hot-cold dynamic range at this temperature scale and kill RA outright.\n";
    return 0;
}
