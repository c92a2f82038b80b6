// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "detect/fcsd.h"

#include <cmath>
#include <limits>

#include "detect/real_model.h"
#include "detect/scratch.h"

namespace hcq::detect {

namespace {

/// Completes a branch below `level` by greedy slicing; returns total cost.
double babai_complete(const real_model& model, std::vector<double>& amplitudes,
                      std::size_t level, double partial_cost) {
    double cost = partial_cost;
    for (std::size_t step = level + 1; step-- > 0;) {
        double acc = model.y_eff[step];
        for (std::size_t j = step + 1; j < model.dims; ++j) {
            acc -= model.r(step, j) * amplitudes[j];
        }
        const double center = acc / model.r(step, step);
        const double amplitude = slice_amplitude(center, model.alphabet);
        amplitudes[step] = amplitude;
        const double residual = acc - model.r(step, step) * amplitude;
        cost += residual * residual;
        if (step == 0) break;
    }
    return cost;
}

/// Enumerates the top `remaining` levels exhaustively, Babai below.  The
/// `completed` buffer is reused across leaves (babai_complete never recurses
/// back into enumerate, so one shared buffer suffices).
void enumerate(const real_model& model, std::vector<double>& amplitudes, std::size_t level,
               std::size_t remaining, double partial_cost, std::vector<double>& best,
               double& best_cost, std::vector<double>& completed) {
    if (remaining == 0 || level + 1 == 0) {
        completed = amplitudes;
        const double cost = babai_complete(model, completed, level, partial_cost);
        if (cost < best_cost) {
            best_cost = cost;
            best = completed;
        }
        return;
    }
    double acc = model.y_eff[level];
    for (std::size_t j = level + 1; j < model.dims; ++j) {
        acc -= model.r(level, j) * amplitudes[j];
    }
    for (const double amplitude : model.alphabet) {
        const double residual = acc - model.r(level, level) * amplitude;
        amplitudes[level] = amplitude;
        const double cost = partial_cost + residual * residual;
        if (level == 0) {
            if (cost < best_cost) {
                best_cost = cost;
                best = amplitudes;
            }
            continue;
        }
        enumerate(model, amplitudes, level - 1, remaining - 1, cost, best, best_cost, completed);
    }
}

}  // namespace

fcsd_detector::fcsd_detector(std::size_t full_levels) : full_levels_(full_levels) {}

std::string fcsd_detector::name() const { return "FCSD" + std::to_string(full_levels_); }

double fcsd_detector::detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                                  std::vector<std::uint8_t>& bits) const {
    lattice_scratch& lat = scratch.lattice;
    const real_model& model = make_real_model_into(instance, lat);

    lat.chosen.assign(model.dims, 0.0);
    lat.best.assign(model.dims, 0.0);

    if (full_levels_ == 0) {
        (void)babai_complete(model, lat.best, model.dims - 1, 0.0);
    } else {
        double best_cost = std::numeric_limits<double>::infinity();
        enumerate(model, lat.chosen, model.dims - 1, std::min(full_levels_, model.dims), 0.0,
                  lat.best, best_cost, lat.completed);
    }

    return assemble_result_into(instance, lat.best, scratch, bits);
}

}  // namespace hcq::detect
