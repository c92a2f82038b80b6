// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "detect/kbest.h"

#include <algorithm>
#include <stdexcept>

#include "detect/real_model.h"
#include "detect/scratch.h"

namespace hcq::detect {

kbest_detector::kbest_detector(std::size_t k) : k_(k) {
    if (k == 0) throw std::invalid_argument("kbest_detector: k == 0");
}

std::string kbest_detector::name() const { return "KB" + std::to_string(k_); }

// Index-based beam search: instead of copying whole amplitude paths into an
// expanded list, children are (cost, parent, amplitude) nodes and the kept
// rows are reconstructed from their parents into a double-buffered flat
// beam.  The children are generated in the same (parent-major, alphabet)
// order and selected by the same cost-only std::partial_sort as the
// historical path-copying implementation, so the selected permutation — and
// hence the detected word — is identical.
double kbest_detector::detect_into(const wireless::mimo_instance& instance,
                                   detect_scratch& scratch, std::vector<std::uint8_t>& bits) const {
    lattice_scratch& lat = scratch.lattice;
    const real_model& model = make_real_model_into(instance, lat);
    const std::size_t dims = model.dims;

    lat.beam_amps.assign(dims, 0.0);  // one all-zero root path
    lat.beam_costs.assign(1, 0.0);
    std::size_t beam_size = 1;

    for (std::size_t step = 0; step < dims; ++step) {
        const std::size_t level = dims - 1 - step;
        lat.expanded.clear();
        for (std::size_t b = 0; b < beam_size; ++b) {
            const double* amps = lat.beam_amps.data() + b * dims;
            const double parent_cost = lat.beam_costs[b];
            double acc = model.y_eff[level];
            for (std::size_t j = level + 1; j < dims; ++j) {
                acc -= model.r(level, j) * amps[j];
            }
            for (const double amplitude : model.alphabet) {
                const double residual = acc - model.r(level, level) * amplitude;
                lat.expanded.push_back({parent_cost + residual * residual, b, amplitude});
            }
        }
        const std::size_t keep = std::min(k_, lat.expanded.size());
        std::partial_sort(lat.expanded.begin(),
                          lat.expanded.begin() + static_cast<std::ptrdiff_t>(keep),
                          lat.expanded.end(),
                          [](const lattice_scratch::expand_node& a,
                             const lattice_scratch::expand_node& b) { return a.cost < b.cost; });
        // Materialise the kept rows from their parents; the old beam's costs
        // are no longer needed once expansion finished, so overwrite in place.
        lat.next_amps.resize(keep * dims);
        lat.beam_costs.resize(keep);
        for (std::size_t b = 0; b < keep; ++b) {
            const lattice_scratch::expand_node& node = lat.expanded[b];
            const double* parent = lat.beam_amps.data() + node.parent * dims;
            double* row = lat.next_amps.data() + b * dims;
            for (std::size_t j = 0; j < dims; ++j) row[j] = parent[j];
            row[level] = node.amplitude;
            lat.beam_costs[b] = node.cost;
        }
        lat.beam_amps.swap(lat.next_amps);
        beam_size = keep;
    }

    lat.chosen.assign(lat.beam_amps.begin(), lat.beam_amps.begin() + static_cast<std::ptrdiff_t>(dims));
    return assemble_result_into(instance, lat.chosen, scratch, bits);
}

}  // namespace hcq::detect
