#include "core/experiment.h"

#include <cmath>
#include <stdexcept>

#include "metrics/delta_e.h"
#include "util/thread_pool.h"

namespace hcq::hybrid {

experiment_instance make_paper_instance(util::rng& rng, std::size_t num_users,
                                        wireless::modulation mod) {
    experiment_instance out;
    out.instance = wireless::noiseless_paper_instance(rng, num_users, mod);
    out.reduced = detect::ml_to_qubo(out.instance);
    out.optimal_bits = out.instance.tx_bits;
    out.optimal_energy = out.reduced.model.energy(out.optimal_bits);
    return out;
}

std::vector<experiment_instance> make_paper_corpus(std::uint64_t seed, std::size_t count,
                                                   std::size_t num_users,
                                                   wireless::modulation mod) {
    if (count == 0) throw std::invalid_argument("make_paper_corpus: zero instances");
    const util::rng base(seed);
    std::vector<experiment_instance> corpus(count);
    util::pool_for_each(count, [&](std::size_t i) {
        util::rng stream = base.derive(i);
        corpus[i] = make_paper_instance(stream, num_users, mod);
    });
    return corpus;
}

bool verify_ground_truth(const experiment_instance& e, double tolerance) {
    const double total = e.reduced.model.energy_with_offset(e.optimal_bits);
    return std::fabs(total) <= tolerance;
}

std::size_t quality_binned_states::total() const {
    std::size_t acc = 0;
    for (const auto& bin : states) acc += bin.size();
    return acc;
}

quality_binned_states harvest_annealer_states(const experiment_instance& e,
                                              const anneal::annealer_emulator& device,
                                              double bin_width_percent, double max_percent,
                                              std::size_t reads_per_setting, util::rng& rng) {
    if (bin_width_percent <= 0.0 || max_percent <= 0.0) {
        throw std::invalid_argument("harvest_annealer_states: bad bin parameters");
    }
    if (reads_per_setting == 0) {
        throw std::invalid_argument("harvest_annealer_states: zero reads");
    }
    quality_binned_states out;
    out.bin_width_percent = bin_width_percent;
    out.max_percent = max_percent;
    out.states.resize(static_cast<std::size_t>(std::ceil(max_percent / bin_width_percent)));

    // Forward anneals with pauses across the schedule-parameter range emit
    // states across the whole quality spectrum.
    for (double sp = 0.25; sp <= 0.58; sp += 0.08) {
        const auto schedule = anneal::anneal_schedule::forward(1.0, sp, 1.0);
        const auto samples = device.sample(e.reduced.model, schedule, reads_per_setting, rng);
        for (const auto& s : samples.all()) {
            const double gap = metrics::delta_e_percent(s.energy, e.optimal_energy);
            if (gap <= 1e-9 || gap >= max_percent) continue;
            const std::size_t bin = metrics::delta_e_bin(gap, bin_width_percent);
            if (bin < out.states.size()) out.states[bin].push_back(s.bits);
        }
    }
    return out;
}

}  // namespace hcq::hybrid
