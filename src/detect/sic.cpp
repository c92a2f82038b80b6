// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "detect/sic.h"

#include <algorithm>
#include <span>
#include <vector>

#include "detect/scratch.h"
#include "linalg/decompose.h"
#include "util/timer.h"

namespace hcq::detect {

void sic_detector::detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                               detection_result& out) const {
    const util::timer clock;
    const std::size_t n = instance.num_users;

    linalg::cvec& residual = scratch.sic_residual;
    residual = instance.y;
    std::vector<std::size_t>& remaining = scratch.remaining;
    remaining.resize(n);
    for (std::size_t u = 0; u < n; ++u) remaining[u] = u;

    out.symbols.resize(n);
    std::uint8_t bits[8];  // bits_per_symbol is at most 6
    const std::size_t bps = wireless::bits_per_symbol(instance.mod);
    while (!remaining.empty()) {
        // Channel restricted to the remaining streams.
        linalg::cmat& h_sub = scratch.h_sub;
        h_sub.resize(instance.h.rows(), remaining.size());
        for (std::size_t r = 0; r < instance.h.rows(); ++r) {
            for (std::size_t c = 0; c < remaining.size(); ++c) {
                h_sub(r, c) = instance.h(r, remaining[c]);
            }
        }
        linalg::least_squares_into(h_sub, residual, scratch.ls, scratch.soft);
        const linalg::cvec& soft = scratch.soft;

        // Detect the stream with the largest post-equalisation confidence
        // (distance from the decision boundary approximated by magnitude).
        std::size_t pick = 0;
        double best_metric = -1.0;
        for (std::size_t c = 0; c < remaining.size(); ++c) {
            const double metric = std::abs(soft[c]);
            if (metric > best_metric) {
                best_metric = metric;
                pick = c;
            }
        }
        const std::size_t user = remaining[pick];
        wireless::demodulate_symbol_into(instance.mod, soft[pick], bits);
        const linalg::cxd symbol = wireless::modulate_symbol(
            instance.mod, std::span<const std::uint8_t>(bits, bps));
        out.symbols[user] = symbol;

        // Subtract the detected stream's contribution.
        for (std::size_t r = 0; r < instance.h.rows(); ++r) {
            residual[r] -= instance.h(r, user) * symbol;
        }
        remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    wireless::demodulate_into(instance.mod, out.symbols, out.bits);
    out.ml_cost = instance.ml_cost(out.symbols, scratch.residual);
    out.nodes_visited = 0;
    out.elapsed_us = clock.elapsed_us();
}

}  // namespace hcq::detect
