// Figure 3 — "Empirical results of the simplifying QUBO scheme for 50
// instances of MIMO detection across different problem sizes and
// modulations: (Left) ratio of simplified QUBOs and (Right) average number
// of fixed variables in the simplified cases."
//
// Paper finding to reproduce: the prefixing scheme achieves nearly no effect
// for problems over 32-40 variables, regardless of modulation.
#include <map>
#include <vector>

#include "bench_common.h"
#include "detect/transform.h"
#include "qubo/preprocess.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wireless/mimo.h"

namespace {

namespace wl = hcq::wireless;

struct cell {
    double simplified_ratio = 0.0;
    double mean_fixed = 0.0;  // among simplified instances
};

cell measure(std::uint64_t seed, std::size_t num_users, wl::modulation mod,
             std::size_t num_instances, bool iterate) {
    std::vector<std::size_t> fixed_counts(num_instances, 0);
    hcq::util::pool_for_each(num_instances, [&](std::size_t i) {
        hcq::util::rng rng(hcq::util::rng(seed).derive(i * 4096 + num_users * 8 +
                                                       static_cast<std::size_t>(mod))());
        const auto inst = wl::noiseless_paper_instance(rng, num_users, mod);
        const auto mq = hcq::detect::ml_to_qubo(inst);
        fixed_counts[i] = hcq::qubo::prefix_variables(mq.model, iterate).num_fixed();
    });
    cell out;
    std::size_t simplified = 0;
    std::size_t fixed_total = 0;
    for (const auto f : fixed_counts) {
        if (f > 0) {
            ++simplified;
            fixed_total += f;
        }
    }
    out.simplified_ratio = static_cast<double>(simplified) / static_cast<double>(num_instances);
    out.mean_fixed =
        simplified > 0 ? static_cast<double>(fixed_total) / static_cast<double>(simplified) : 0.0;
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const hcq::bench::context ctx(argc, argv);
    ctx.banner("Figure 3: QUBO variable-prefixing on MIMO detection problems",
               "Kim et al., HotNets'20, Section 3.1 / Figure 3");

    const std::size_t instances = ctx.scaled(50);  // the paper uses 50
    const bool iterate = ctx.flags.get_bool("iterate", true);

    // Problem sizes (QUBO variables) from very small up to beyond the
    // paper's 32-40 variable no-effect threshold.
    const std::vector<std::size_t> sizes{2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 36, 40, 48, 60};

    hcq::util::table left({"variables", "BPSK", "QPSK", "16-QAM", "64-QAM"});
    hcq::util::table right({"variables", "BPSK", "QPSK", "16-QAM", "64-QAM"});

    for (const auto vars : sizes) {
        std::vector<std::string> ratio_row{std::to_string(vars)};
        std::vector<std::string> fixed_row{std::to_string(vars)};
        for (const auto mod : wl::all_modulations()) {
            const std::size_t per = wl::bits_per_symbol(mod);
            if (vars % per != 0 || vars / per == 0) {
                ratio_row.push_back("-");
                fixed_row.push_back("-");
                continue;
            }
            const cell c = measure(ctx.seed, vars / per, mod, instances, iterate);
            ratio_row.push_back(hcq::util::format_double(c.simplified_ratio, 3));
            fixed_row.push_back(hcq::util::format_double(c.mean_fixed, 2));
        }
        left.add_row(ratio_row);
        right.add_row(fixed_row);
    }

    std::cout << "(Left) ratio of instances simplified at all (" << instances
              << " instances/cell):\n";
    ctx.emit(left);
    std::cout << "(Right) mean #fixed variables among simplified instances:\n";
    ctx.emit(right);
    std::cout << "Paper shape check: ratios should collapse to ~0 at >= 32-40 variables\n"
                 "for every modulation.\n";
    return 0;
}
