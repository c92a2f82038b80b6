// Quadratic Unconstrained Binary Optimization (QUBO) model — Eq. (1) of the
// paper: E({q}) = sum_{i<=j} Q_ij q_i q_j over q in {0,1}^N, with Q upper
// triangular.  A constant `offset` is carried alongside so that reductions
// (e.g. the ML-to-QUBO transform, variable fixing, Ising round-trips) can
// preserve the original objective exactly: original(q) = energy(q) + offset.
#ifndef HCQ_QUBO_MODEL_H
#define HCQ_QUBO_MODEL_H

#include <version>

// The library's public interfaces take std::span<const std::uint8_t> and the
// implementation relies on other C++20 features (<numbers>, CTAD for
// scoped_lock, defaulted comparisons).  Under -std=c++17 the failure mode is
// pages of unrelated template errors, so fail here with the actual cause.
#if !defined(__cpp_lib_span) || __cpp_lib_span < 202002L
#error "hcq requires C++20 (std::span unavailable) — build with -std=c++20; the CMake build sets this via CMAKE_CXX_STANDARD 20"
#endif

#include <cstdint>
#include <span>
#include <vector>

namespace hcq::qubo {

/// Bit string type used by every solver: one byte per binary variable.
using bit_vector = std::vector<std::uint8_t>;

/// Dense QUBO over n binary variables.
///
/// Internally stores a symmetric mirror of the upper-triangular coefficient
/// matrix so that per-variable "local field" queries (the quantity that makes
/// single-bit-flip moves O(N)) are cache-friendly.
class qubo_model {
public:
    qubo_model() = default;

    /// Zero QUBO on n variables.
    explicit qubo_model(std::size_t n);

    /// Re-initialises to the zero QUBO on n variables, reusing the existing
    /// coefficient storage when it is large enough (hot-path model reuse).
    void reset(std::size_t n);

    [[nodiscard]] std::size_t num_variables() const noexcept { return n_; }

    /// Q_ii, the linear coefficient of variable i.
    [[nodiscard]] double linear(std::size_t i) const;

    /// Q_min(i,j),max(i,j): the coupling between two distinct variables
    /// (order-insensitive).  i == j returns linear(i).
    [[nodiscard]] double coefficient(std::size_t i, std::size_t j) const;

    /// Adds v to Q_ij (order-insensitive; i == j adds to the linear term).
    void add_term(std::size_t i, std::size_t j, double v);

    /// Overwrites Q_ij (order-insensitive).
    void set_term(std::size_t i, std::size_t j, double v);

    /// Constant carried alongside the quadratic form.
    [[nodiscard]] double offset() const noexcept { return offset_; }
    void set_offset(double v) noexcept { offset_ = v; }
    void add_offset(double v) noexcept { offset_ += v; }

    /// E(q) per Eq. (1) — does NOT include the offset.
    [[nodiscard]] double energy(std::span<const std::uint8_t> bits) const;

    /// E(q) + offset: the value of the objective the QUBO was reduced from.
    [[nodiscard]] double energy_with_offset(std::span<const std::uint8_t> bits) const {
        return energy(bits) + offset_;
    }

    /// Local field of variable i under assignment `bits`:
    ///   field_i = Q_ii + sum_{j != i} Q_c(i,j) q_j,
    /// so flipping q_i changes the energy by (1 - 2 q_i) * field_i.
    [[nodiscard]] double local_field(std::size_t i, std::span<const std::uint8_t> bits) const;

    /// All local fields at once (O(N^2)).
    [[nodiscard]] std::vector<double> local_fields(std::span<const std::uint8_t> bits) const;

    /// local_fields into a reused buffer.
    void local_fields_into(std::span<const std::uint8_t> bits, std::vector<double>& fields) const;

    /// Energy change if q_i were flipped.
    [[nodiscard]] double flip_delta(std::size_t i, std::span<const std::uint8_t> bits) const;

    /// Largest |Q_ij| over all stored coefficients (0 for an empty model);
    /// used by solvers to scale temperatures.
    [[nodiscard]] double max_abs_coefficient() const noexcept;

    /// Fixes variable i to `value`, returning the reduced QUBO on n-1
    /// variables (couplings fold into linear terms, linear folds into the
    /// offset).  `mapping` receives, for each reduced index, the original
    /// index it came from.
    [[nodiscard]] qubo_model fix_variable(std::size_t i, std::uint8_t value,
                                          std::vector<std::size_t>* mapping = nullptr) const;

    /// Direct read-only access to the symmetric coefficient row of variable
    /// i (length n; entry i is the linear term).  Enables O(N) field updates
    /// in hot solver loops without per-element index arithmetic.  Inline:
    /// called once per accepted flip, so a cross-TU call here shows up in
    /// every sweep-solver profile.
    [[nodiscard]] std::span<const double> row(std::size_t i) const {
        check_index(i);
        return {sym_.data() + i * n_, n_};
    }

private:
    /// Bounds check kept inline so hot accessors reduce to compare-and-go;
    /// the throw itself stays out-of-line (cold).
    void check_index(std::size_t i) const {
        if (i >= n_) throw_bad_index(i);
    }
    [[noreturn]] void throw_bad_index(std::size_t i) const;

    std::size_t n_ = 0;
    double offset_ = 0.0;
    // Symmetric dense storage: sym_[i*n + j] == sym_[j*n + i] == Q_c(i,j) for
    // i != j; diagonal holds Q_ii.  The canonical upper-triangular view is
    // recovered by reading i <= j.
    std::vector<double> sym_;
};

/// Convenience: number of bit strings agreeing with `reference` (for tests).
[[nodiscard]] std::size_t hamming_distance(std::span<const std::uint8_t> a,
                                           std::span<const std::uint8_t> b);

}  // namespace hcq::qubo

#endif  // HCQ_QUBO_MODEL_H
