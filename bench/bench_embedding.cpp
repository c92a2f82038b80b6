// Hardware-realism ablation: minor-embedding overhead on the Chimera
// topology (the D-Wave 2000Q reality behind the paper's prototype; QuAMax
// [29] discusses the same machinery).
//
// A dense MIMO QUBO cannot be programmed natively: each logical variable
// becomes a ferromagnetic chain.  This bench sweeps the chain strength and
// reports ground-state probability (after majority-vote unembedding) and
// chain-break fractions, plus the native-vs-embedded comparison — the
// systems cost of real hardware that laptop-scale QUBO studies ignore.
#include <vector>

#include "bench_common.h"
#include "core/device.h"
#include "core/embedding.h"
#include "core/experiment.h"
#include "core/topology.h"
#include "metrics/stats.h"
#include "qubo/ising.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

namespace an = hcq::anneal;
namespace hy = hcq::hybrid;
namespace wl = hcq::wireless;

}  // namespace

int main(int argc, char** argv) {
    const hcq::bench::context ctx(argc, argv);
    ctx.banner("Embedding ablation: dense MIMO QUBOs on the Chimera topology",
               "hardware-realism substrate (D-Wave 2000Q; cf. QuAMax [29])");

    const std::size_t instances = ctx.scaled(3);
    const std::size_t reads = ctx.scaled(150);
    // 4-user QPSK: 8 logical variables -> Chimera C_2 (32 qubits).
    const std::size_t users = 4;
    const auto mod = wl::modulation::qpsk;
    const an::chimera_graph graph(2, 4);
    const auto chains = an::clique_embedding(graph, users * wl::bits_per_symbol(mod));
    const an::annealer_emulator device;
    const auto schedule = an::anneal_schedule::forward_plain(4.0);

    std::cout << "workload: " << users << "-user " << wl::to_string(mod) << " ("
              << users * wl::bits_per_symbol(mod) << " logical vars) on Chimera C_"
              << graph.grid_size() << " (" << graph.num_nodes() << " qubits, chains of "
              << chains.front().size() << ")\n\n";

    const std::vector<double> strengths{0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
    hcq::util::table t({"chain strength (rel max|Q|)", "P(optimum) embedded",
                        "mean chain-break fraction", "P(optimum) native"});

    struct row_data {
        hcq::metrics::running_stats p_emb, breaks, p_native;
    };
    std::vector<row_data> rows(strengths.size());

    hcq::util::pool_for_each(strengths.size(), [&](std::size_t k) {
        for (std::size_t i = 0; i < instances; ++i) {
            hcq::util::rng rng(hcq::util::rng(ctx.seed + 7 * k).derive(i)());
            const auto e = hy::make_paper_instance(rng, users, mod);
            const double rel = strengths[k] * e.reduced.model.max_abs_coefficient() / 4.0;
            const auto embedded = an::embed_qubo(e.reduced.model, graph, chains, rel);
            const auto physical_qubo = hcq::qubo::to_qubo(embedded.physical);

            const auto samples = device.sample(physical_qubo, schedule, reads, rng);
            std::size_t hits = 0;
            double break_total = 0.0;
            for (const auto& s : samples.all()) {
                break_total += embedded.chain_break_fraction(s.bits);
                const auto logical = embedded.unembed(s.bits);
                if (e.reduced.model.energy(logical) <= e.optimal_energy + 1e-6) ++hits;
            }
            rows[k].p_emb.add(static_cast<double>(hits) / static_cast<double>(reads));
            rows[k].breaks.add(break_total / static_cast<double>(reads));

            const auto native = device.sample(e.reduced.model, schedule, reads, rng);
            rows[k].p_native.add(native.success_probability(e.optimal_energy));
        }
    });

    for (std::size_t k = 0; k < strengths.size(); ++k) {
        t.add(strengths[k], rows[k].p_emb.mean(), rows[k].breaks.mean(),
              rows[k].p_native.mean());
    }
    ctx.emit(t);
    std::cout << "Shape check: weak chains break (high break fraction, poor unembedded\n"
                 "success); overly strong chains drown the logical problem's energy scale;\n"
                 "a mid-range strength works best — and even the best embedded success\n"
                 "trails the native (embedding-free) run, the overhead real hardware pays.\n";
    return 0;
}
