// Figure 2 (vision) — "Example pipeline design of hybrid computational
// structure for successive wireless channel uses."
//
// The paper's figure is conceptual; this bench quantifies it: successive
// channel uses flow through a classical (GS) stage and a quantum (RA) stage.
// It sweeps the number of anneal reads per channel use and the offered load,
// reporting throughput, latency percentiles, and stage utilisation — the
// quantities that decide whether the structure meets a link-layer (ARQ)
// turnaround budget.  It also contrasts the pipelined structure against a
// strictly sequential (unpipelined) execution of the same stages.
#include <vector>

#include "bench_common.h"
#include "classical/greedy.h"
#include "core/experiment.h"
#include "core/schedule.h"
#include "pipeline/pipeline.h"
#include "util/rng.h"

namespace {

namespace an = hcq::anneal;
namespace hy = hcq::hybrid;
namespace pl = hcq::pipeline;
namespace wl = hcq::wireless;

}  // namespace

int main(int argc, char** argv) {
    const hcq::bench::context ctx(argc, argv);
    ctx.banner("Figure 2: pipelined classical-quantum processing of channel uses",
               "Kim et al., HotNets'20, Section 3 / Figure 2");

    const std::size_t num_jobs = ctx.scaled(2000);
    const double sp = ctx.flags.get_double("sp", 0.45);
    const double programming_us = ctx.flags.get_double("programming-us", 10.0);

    // Measure the classical stage on a real instance, warm, as the link
    // pays it per use.
    hcq::util::rng rng(ctx.seed);
    const auto e = hy::make_paper_instance(rng, 8, wl::modulation::qam16);
    const auto gs = hcq::bench::warm_solve(hcq::solvers::greedy_search(), e.reduced.model, rng);
    const double classical_us = std::max(gs.elapsed_us, 1.0);
    const auto schedule = an::anneal_schedule::reverse(sp, 1.0);

    std::cout << "classical (GS) stage: " << hcq::util::format_double(classical_us, 2)
              << " us/use; quantum (RA s_p=" << sp
              << ") read: " << hcq::util::format_double(schedule.duration_us(), 2)
              << " us + " << programming_us << " us programming/use\n\n";

    hcq::util::table t({"reads/use", "arrival us", "throughput use/ms", "p50 us", "p99 us",
                        "util classical", "util quantum", "seq latency us", "pipe gain x"});

    for (const std::size_t reads : {10UL, 50UL, 100UL, 500UL}) {
        const double quantum_us =
            programming_us + schedule.duration_us() * static_cast<double>(reads);
        const double bottleneck = std::max(classical_us, quantum_us);
        for (const double load : {0.5, 0.9, 1.2}) {
            const double interarrival = bottleneck / load;
            hcq::util::rng sim_rng(ctx.seed + reads + static_cast<std::uint64_t>(load * 10));
            const auto stages =
                pl::make_hybrid_stages(classical_us, schedule.duration_us(), reads,
                                       programming_us);
            const auto result =
                pl::simulate(stages, num_jobs, {.interarrival_us = interarrival}, sim_rng);
            const double sequential_latency = classical_us + quantum_us;
            // Pipelining gain: sustained throughput vs running both stages
            // back-to-back per use on one resource.
            const double seq_throughput = 1.0 / sequential_latency;
            const double gain = result.throughput_per_us / seq_throughput;
            t.add(reads, hcq::util::format_double(interarrival, 1),
                  hcq::util::format_double(result.throughput_per_us * 1000.0, 2),
                  hcq::util::format_double(result.p50_latency_us, 1),
                  hcq::util::format_double(result.p99_latency_us, 1),
                  hcq::util::format_double(result.stage_utilization[0], 2),
                  hcq::util::format_double(result.stage_utilization[1], 2),
                  hcq::util::format_double(sequential_latency, 1),
                  hcq::util::format_double(gain, 2));
        }
    }
    ctx.emit(t);
    std::cout << "Shape check: at high load the pipeline sustains ~1/bottleneck throughput\n"
                 "(gain -> (classical+quantum)/bottleneck), while p99 latency blows up past\n"
                 "saturation (load 1.2) — the balancing/buffering challenge of Section 3.\n";
    return 0;
}
