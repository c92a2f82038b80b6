#include "detect/sphere.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "detect/real_model.h"
#include "detect/scratch.h"

namespace hcq::detect {

namespace {

/// DFS state shared across recursion levels.  The chosen/best/per-level
/// order buffers live in the caller's lattice_scratch so a warmed-up search
/// never allocates.
struct search_state {
    const real_model* model = nullptr;
    std::vector<double>* chosen = nullptr;  // amplitude per dimension
    std::vector<double>* best = nullptr;    // best leaf found
    std::vector<std::vector<double>>* level_order = nullptr;
    double best_cost = std::numeric_limits<double>::infinity();
    bool reached_leaf = false;
};

/// Expands dimension `level` (levels run dims-1 .. 0), with `partial_cost`
/// accumulated from higher levels.
void descend(search_state& state, std::size_t level, double partial_cost) {
    const auto& m = *state.model;
    std::vector<double>& chosen = *state.chosen;
    // Unconstrained center of this level given the higher-level choices.
    double acc = m.y_eff[level];
    for (std::size_t j = level + 1; j < m.dims; ++j) {
        acc -= m.r(level, j) * chosen[j];
    }
    const double diag = m.r(level, level);
    const double center = acc / diag;

    // Schnorr-Euchner: visit alphabet points by increasing distance from the
    // center, so the first leaf is the Babai point and pruning kicks in fast.
    // Each recursion level owns one reusable ordering buffer.
    std::vector<double>& order = (*state.level_order)[level];
    order.assign(m.alphabet.begin(), m.alphabet.end());
    std::sort(order.begin(), order.end(), [center](double a, double b) {
        return std::fabs(a - center) < std::fabs(b - center);
    });

    for (const double amplitude : order) {
        const double residual = acc - diag * amplitude;
        const double cost = partial_cost + residual * residual;
        if (cost >= state.best_cost) {
            // SE order is monotone in per-level cost: nothing further helps.
            break;
        }
        chosen[level] = amplitude;
        if (level == 0) {
            state.best_cost = cost;
            state.reached_leaf = true;
            *state.best = chosen;
        } else {
            descend(state, level - 1, cost);
        }
    }
}

}  // namespace

sphere_detector::sphere_detector(double initial_radius_sq)
    : initial_radius_sq_(initial_radius_sq) {}

double sphere_detector::detect_into(const wireless::mimo_instance& instance,
                                    detect_scratch& scratch,
                                    std::vector<std::uint8_t>& bits) const {
    lattice_scratch& lat = scratch.lattice;
    const real_model& model = make_real_model_into(instance, lat);
    if (lat.level_order.size() < model.dims) lat.level_order.resize(model.dims);

    search_state state;
    state.model = &model;
    state.chosen = &lat.chosen;
    state.best = &lat.best;
    state.level_order = &lat.level_order;
    lat.chosen.assign(model.dims, 0.0);
    lat.best.assign(model.dims, 0.0);
    if (initial_radius_sq_ > 0.0) state.best_cost = initial_radius_sq_;

    descend(state, model.dims - 1, 0.0);

    if (!state.reached_leaf) {
        // The radius is below the ML cost, so no leaf lies inside it: search
        // again with an unbounded radius, which always reaches one.
        state.best_cost = std::numeric_limits<double>::infinity();
        descend(state, model.dims - 1, 0.0);
    }

    return assemble_result_into(instance, lat.best, scratch, bits);
}

}  // namespace hcq::detect
