#include "detect/sphere.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "detect/real_model.h"
#include "detect/scratch.h"
#include "util/timer.h"

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
    std::size_t nodes = 0;
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
        ++state.nodes;
        chosen[level] = amplitude;
        if (level == 0) {
            state.best_cost = cost;
            *state.best = chosen;
        } else {
            descend(state, level - 1, cost);
        }
    }
}

}  // namespace

sphere_detector::sphere_detector(double initial_radius_sq)
    : initial_radius_sq_(initial_radius_sq) {}

void sphere_detector::detect_into(const wireless::mimo_instance& instance,
                                  detect_scratch& scratch, detection_result& out) const {
    const util::timer clock;
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

    if (!std::isfinite(state.best_cost)) {
        // Radius too small: fall back to the Babai (greedy slicing) solution
        // obtained with an unbounded radius.
        search_state fallback;
        fallback.model = &model;
        fallback.chosen = &lat.chosen;
        fallback.best = &lat.best;
        fallback.level_order = &lat.level_order;
        lat.chosen.assign(model.dims, 0.0);
        lat.best.assign(model.dims, 0.0);
        descend(fallback, model.dims - 1, 0.0);
        state.best_cost = fallback.best_cost;
        state.nodes = fallback.nodes;
    }

    assemble_result_into(instance, lat.best, state.nodes, scratch.residual, out);
    out.elapsed_us = clock.elapsed_us();
}

}  // namespace hcq::detect
