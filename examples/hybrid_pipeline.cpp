// Figure-2 demo: a stream of channel uses flowing through the pipelined
// classical-quantum structure, with stage timings measured from the real
// solver components (not synthetic constants).
//
// The hybrid structure is built from a detection-path spec string
// ("gsra:reads=N,sp=0.45") through paths::registry — the same API
// examples/link_sim and the link layer use — and its measured "classical" /
// "quantum" stage split drives the pipeline exploration below.
//
// Prints a short timeline of the first few channel uses (showing the
// classical unit working on use N+1 while the quantum unit processes use N)
// followed by steady-state throughput/latency for several read budgets.
//
// Usage: ./examples/hybrid_pipeline [--uses=N] [--reads=N]
#include <algorithm>
#include <iostream>
#include <string>

#include "detect/transform.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "pipeline/pipeline.h"
#include "util/cli.h"
#include "util/table.h"
#include "wireless/mimo.h"

int main(int argc, char** argv) try {
    using namespace hcq;
    const util::flag_set flags(argc, argv);
    const std::size_t uses = flags.get_size("uses", 1000);
    const std::size_t reads = flags.get_size("reads", 50);

    // Build the paper's hybrid structure from its spec string and measure
    // real stage costs on a representative channel use.
    const auto hybrid =
        paths::registry::make("gsra:reads=" + std::to_string(reads) + ",sp=0.45,pause_us=1");
    util::rng rng(4242);
    const auto instance = wireless::noiseless_paper_instance(rng, 8, wireless::modulation::qam16);
    const auto mq = detect::ml_to_qubo(instance);
    paths::workspace ws;
    const paths::path_context ctx{instance, &mq, rng, &ws};
    const auto measured = hybrid->run(ctx);

    double classical_us = 1.0;
    double quantum_us = 0.0;
    const auto stage_names = hybrid->stage_names();
    for (std::size_t s = 0; s < stage_names.size(); ++s) {
        const double us = measured.stages[s].service_us;
        if (stage_names[s] == "classical") classical_us = std::max(us, 1.0);
        if (stage_names[s] == "quantum") quantum_us = us;
    }
    const double read_us = quantum_us / static_cast<double>(reads);

    std::cout << "stage costs measured through the '" << hybrid->spec().to_string()
              << "' path on an 8-user 16-QAM use:\n"
              << "  classical greedy search: " << util::format_double(classical_us, 2)
              << " us\n  quantum RA (" << reads << " reads x "
              << util::format_double(read_us, 2)
              << " us): " << util::format_double(quantum_us, 2) << " us\n\n";

    // Timeline of the first 4 uses at saturation (Figure 2's picture).
    std::cout << "timeline at saturating load (times in us):\n";
    std::cout << "  use  classical[start, end)   quantum[start, end)\n";
    double cl_free = 0.0;
    double qu_free = 0.0;
    for (std::size_t n = 0; n < 4; ++n) {
        const double cl_start = cl_free;
        const double cl_end = cl_start + classical_us;
        const double qu_start = std::max(cl_end, qu_free);
        const double qu_end = qu_start + quantum_us;
        cl_free = cl_end;
        qu_free = qu_end;
        std::cout << "  " << n << "    [" << util::format_double(cl_start, 1) << ", "
                  << util::format_double(cl_end, 1) << ")"
                  << std::string(12, ' ') << "[" << util::format_double(qu_start, 1) << ", "
                  << util::format_double(qu_end, 1) << ")\n";
    }
    std::cout << "  (the classical unit starts use N+1 while the quantum unit still\n"
              << "   processes use N — the overlap of Figure 2)\n\n";

    // Steady state under varying load.
    util::table t({"reads/use", "load", "throughput use/ms", "p50 us", "p99 us",
                   "quantum util"});
    for (const std::size_t r : {10UL, 50UL, 200UL}) {
        const double q_us = 10.0 + read_us * static_cast<double>(r);
        const double bottleneck = std::max(classical_us, q_us);
        for (const double load : {0.6, 0.95}) {
            util::rng sim_rng(1 + r);
            const auto stages = pipeline::make_hybrid_stages(classical_us, read_us, r, 10.0);
            const auto result = pipeline::simulate(
                stages, uses, {.interarrival_us = bottleneck / load}, sim_rng);
            t.add(r, load, result.throughput_per_us * 1000.0, result.p50_latency_us,
                  result.p99_latency_us,
                  util::format_double(result.stage_utilization[1], 2));
        }
    }
    t.print(std::cout);

    // Full result detail for the middle read budget at near-saturation,
    // through the shared simulation_result formatter.
    std::cout << "\ndetail (50 reads/use, load 0.95):\n";
    util::rng detail_rng(51);
    const auto stages = pipeline::make_hybrid_stages(classical_us, read_us, 50, 10.0);
    const double bottleneck = std::max(classical_us, 10.0 + read_us * 50.0);
    const auto detail = pipeline::simulate(
        stages, uses, {.interarrival_us = bottleneck / 0.95}, detail_rng);
    pipeline::summary_table(detail, {"classical", "quantum"}).print(std::cout);
    return 0;
} catch (const std::exception& e) {
    std::cerr << "hybrid_pipeline: error: " << e.what() << "\n";
    return 2;
}
