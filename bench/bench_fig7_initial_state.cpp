// Figure 7 — "Expectation value of the cost function and success probability
// out of RA samples for a 8-user 16-QAM decoding instance across different
// Delta-E_IS%" (initial states binned in steps of delta = 2%).
//
// Paper shape to reproduce: success probability and expected cost improve
// monotonically as the initial-state quality Delta-E_IS% approaches 0.
#include <vector>

#include "bench_common.h"
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

}  // namespace

int main(int argc, char** argv) {
    const hcq::bench::context ctx(argc, argv);
    ctx.banner("Figure 7: RA outcome vs initial-state quality (8-user 16-QAM)",
               "Kim et al., HotNets'20, Section 4.3 / Figure 7");

    const std::size_t instances = ctx.scaled(3);
    const std::size_t reads = ctx.scaled(400);
    const std::size_t harvest_attempts = ctx.scaled(60000);  // paper: 750,000+
    const std::size_t states_per_bin = ctx.scaled(8);
    const double sp = ctx.flags.get_double("sp", 0.45);
    const double bin_width = 2.0;   // the paper's delta
    const double max_gap = 10.0;    // "No initial candidate achieved less than 0.4%"

    const an::annealer_emulator device;
    const std::size_t num_bins = static_cast<std::size_t>(max_gap / bin_width);

    std::vector<hcq::metrics::running_stats> p_star(num_bins);
    std::vector<hcq::metrics::running_stats> mean_cost(num_bins);
    std::vector<std::size_t> harvested(num_bins, 0);

    for (std::size_t i = 0; i < instances; ++i) {
        hcq::util::rng rng(hcq::util::rng(ctx.seed).derive(i)());
        const auto e = hy::make_paper_instance(rng, 8, wl::modulation::qam16);
        // Paper methodology: initial states are themselves annealer samples.
        const auto bins = hy::harvest_annealer_states(e, device, bin_width, max_gap,
                                                      harvest_attempts / 100, rng);

        for (std::size_t b = 0; b < num_bins; ++b) {
            harvested[b] += bins.states[b].size();
            const std::size_t use = std::min(states_per_bin, bins.states[b].size());
            std::vector<hy::schedule_eval> evals(use);
            hcq::util::pool_for_each(use, [&](std::size_t s) {
                hcq::util::rng srng(hcq::util::rng(ctx.seed + 31 * i).derive(b * 1000 + s)());
                evals[s] = hy::evaluate_schedule(device, e.reduced.model,
                                                 an::anneal_schedule::reverse(sp, 1.0), reads,
                                                 e.optimal_energy, srng, bins.states[b][s]);
            });
            for (const auto& eval : evals) {
                p_star[b].add(eval.p_star);
                mean_cost[b].add(eval.mean_delta_e);
            }
        }
    }

    hcq::util::table t({"Delta-E_IS% bin", "states", "success prob p*", "mean Delta-E% after RA"});
    for (std::size_t b = 0; b < num_bins; ++b) {
        char label[64];
        std::snprintf(label, sizeof label, "(%.0f, %.0f]", b * bin_width, (b + 1) * bin_width);
        if (p_star[b].count() == 0) {
            t.add(label, harvested[b], "-", "-");
            continue;
        }
        t.add(label, harvested[b], p_star[b].mean(), mean_cost[b].mean());
    }
    std::cout << instances << " instance(s), s_p = " << sp << ", " << reads
              << " reads per initial state\n";
    ctx.emit(t);
    std::cout << "Paper shape check: p* decreases and the expected cost increases as\n"
                 "Delta-E_IS% grows (monotone degradation with initial-state quality).\n";
    return 0;
}
