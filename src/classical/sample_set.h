// Collections of solver samples (bit string + energy), mirroring the
// "N_s anneal samples, keep the best" workflow of quantum heuristics
// (paper Section 2).
#ifndef HCQ_CLASSICAL_SAMPLE_SET_H
#define HCQ_CLASSICAL_SAMPLE_SET_H

#include <cstddef>
#include <span>
#include <vector>

#include "qubo/model.h"

namespace hcq::solvers {

/// One solver read.
struct sample {
    qubo::bit_vector bits;
    double energy = 0.0;
};

/// Append-only set of samples with the aggregations the paper's metrics use.
class sample_set {
public:
    sample_set() = default;

    void add(qubo::bit_vector bits, double energy);
    void reserve(std::size_t n) { samples_.reserve(n); }

    [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
    [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
    [[nodiscard]] const sample& operator[](std::size_t i) const { return samples_[i]; }
    [[nodiscard]] const std::vector<sample>& all() const noexcept { return samples_; }

    /// Lowest-energy sample; throws std::logic_error when empty.
    [[nodiscard]] const sample& best() const;

    /// Mean sample energy; throws std::logic_error when empty.
    [[nodiscard]] double mean_energy() const;

    /// Number of samples with energy <= reference + tolerance (the
    /// ground-state hit count when `reference` is the optimum).
    [[nodiscard]] std::size_t count_at_or_below(double reference, double tolerance = 1e-6) const;

    /// Fraction of samples at or below the reference energy — the paper's
    /// per-anneal success probability p*.
    [[nodiscard]] double success_probability(double reference, double tolerance = 1e-6) const;

    /// All energies, in insertion order (for distribution plots).
    [[nodiscard]] std::vector<double> energies() const;

private:
    std::vector<sample> samples_;
};

}  // namespace hcq::solvers

#endif  // HCQ_CLASSICAL_SAMPLE_SET_H
