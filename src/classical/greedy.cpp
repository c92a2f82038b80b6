// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "classical/greedy.h"

#include <cmath>
#include <numeric>

namespace hcq::solvers {

double greedy_search::solve_best_into(const qubo::qubo_model& q, util::rng&,
                                      solve_scratch& scratch, qubo::bit_vector& best) const {
    const std::size_t n = q.num_variables();
    best.assign(n, 0);
    if (n == 0) return 0.0;

    // Ising linear terms: h_i = Q_ii / 2 + (1/4) * sum_{k != i} c_ik.
    std::vector<double>& h = scratch.real_a;
    h.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto row = q.row(i);
        double acc = row[i] / 2.0;
        for (std::size_t k = 0; k < n; ++k) {
            if (k != i) acc += row[k] / 4.0;
        }
        h[i] = acc;
    }

    // Stable insertion sort of the rank order: any stable sort gives the
    // same permutation, and this one never touches the heap (N is a handful
    // of bits per user).
    std::vector<std::size_t>& rank = scratch.index_a;
    rank.resize(n);
    std::iota(rank.begin(), rank.end(), 0);
    const auto precedes = [&](std::size_t a, std::size_t b) {
        return order_ == rank_order::most_decided_first ? std::fabs(h[a]) > std::fabs(h[b])
                                                        : std::fabs(h[a]) < std::fabs(h[b]);
    };
    for (std::size_t i = 1; i < n; ++i) {
        const std::size_t key = rank[i];
        std::size_t j = i;
        while (j > 0 && precedes(key, rank[j - 1])) {
            rank[j] = rank[j - 1];
            --j;
        }
        rank[j] = key;
    }

    // Partial local fields over the set variables only:
    //   field_i = Q_ii + sum_{set k} c_ik q_k.
    std::vector<double>& field = scratch.real_b;
    field.resize(n);
    for (std::size_t i = 0; i < n; ++i) field[i] = q.row(i)[i];
    std::vector<std::uint8_t>& is_set = scratch.mask_a;
    is_set.assign(n, 0);

    for (std::size_t step = 0; step < n; ++step) {
        const std::size_t i = rank[step];
        std::uint8_t value = 0;
        if (step == 0) {
            value = h[i] > 0.0 ? 0 : 1;  // paper: first bit by the sign of h_i
        } else {
            value = field[i] > 0.0 ? 0 : 1;  // minimise the partial energy
        }
        best[i] = value;
        is_set[i] = 1;
        if (value == 1) {
            const auto row = q.row(i);
            for (std::size_t j = 0; j < n; ++j) {
                if (j != i && !is_set[j]) field[j] += row[j];
            }
        }
    }

    return q.energy(best);
}

}  // namespace hcq::solvers
