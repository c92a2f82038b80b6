// Single-spin-flip Metropolis dynamics on a QUBO — the kernel under the
// simulated-annealing and parallel-tempering baselines and the annealer
// emulator (core/device).
//
// The engine keeps the current assignment, its energy, and all local fields
// incrementally, so one sweep costs O(N) per accepted flip and O(1) per
// rejected one (amortised O(N^2) per sweep worst case).
//
// Every proposal runs one accept body: a downhill move (delta <= 0) is
// taken, and an uphill one at T > 0 draws u = rng.uniform() and is taken iff
// u < exp(-delta / T).  accept_uphill screens that test before calling
// std::exp: for y = delta / T >= 0, e^y >= 1 + y + y^2/2, so when
// u * (1 + y + y^2/2) > 1 + 2^-20 the move is a reject.  The screen's own
// rounding (a few ulp) and std::exp's error (under one ulp, subnormal
// results included) are far below that 2^-20 margin, so the screen never
// rejects a move the exp test would take.  u = 0 and a NaN y make the
// product 0 or NaN, which never passes the screen, so they reach the exp
// test, which decides them as before; an infinite y rejects any u > 0, as
// exp(-inf) = 0 does.  On the link's QUBOs the screen skips std::exp on
// about 9 in 10 uphill proposals.
//
// Sweeps draw their uniforms in chunks, through a draw_cursor: it fills
// its own fixed-size chunk of 64 draws from a copy of the caller's stream
// with rng::fill, and when it goes out of scope it advances the stream by
// exactly the draws it handed out.  Each proposal sees the draw it would
// have taken one rng.uniform() at a time, and whatever draws from the
// stream next sees what it would have then.  The solvers hold one cursor
// across the sweeps of a read (SA, the annealer) or of a round (PT), so a
// fill spans sweeps.
#ifndef HCQ_CLASSICAL_METROPOLIS_H
#define HCQ_CLASSICAL_METROPOLIS_H

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "qubo/model.h"
#include "util/rng.h"

namespace hcq::solvers {

/// The Metropolis test for an uphill move (delta > 0) at temperature > 0
/// with uniform `u`: exactly `u < std::exp(-delta / temperature)`, behind
/// the screen described at the top of this header.
[[nodiscard]] inline bool accept_uphill(double u, double delta, double temperature) noexcept {
    const double y = delta / temperature;
    if (u * (1.0 + y * (1.0 + 0.5 * y)) > 1.0 + 0x1.0p-20) return false;
    return u < std::exp(-y);
}

/// Uniforms read ahead of `stream`, as described at the top of this header.
/// The chunk is a fixed-size member, so sweeps never allocate.  While a
/// cursor is live, draw from its stream only through it.
class draw_cursor {
public:
    explicit draw_cursor(util::rng& stream) noexcept : stream_(stream), ahead_(stream) {}
    draw_cursor(const draw_cursor&) = delete;
    draw_cursor& operator=(const draw_cursor&) = delete;
    ~draw_cursor() { stream_.discard(taken_); }

    /// The next uniform in [0, 1): what the stream's next uniform() would be.
    [[nodiscard]] double uniform() noexcept {
        const auto k = static_cast<std::size_t>(taken_++ % chunk_.size());
        if (k == 0) ahead_.fill(chunk_);
        return util::rng::to_uniform(chunk_[k]);
    }

private:
    util::rng& stream_;
    util::rng ahead_;  ///< the stream, chunk_'s draws further on
    std::uint64_t taken_ = 0;
    std::array<util::rng::result_type, 64> chunk_;  ///< filled before it is read
};

/// Incremental Metropolis state over one QUBO.
class metropolis_engine {
public:
    /// Unbound engine; call reset() before use (hot-path engine reuse).
    metropolis_engine() = default;

    /// Binds to `q` (must outlive the engine) and sets the initial state.
    metropolis_engine(const qubo::qubo_model& q, qubo::bit_vector initial);

    /// Rebinds to `q` and copies `initial` into the reused state buffers —
    /// equivalent to constructing a fresh engine, without the allocations.
    void reset(const qubo::qubo_model& q, std::span<const std::uint8_t> initial);

    /// Replaces the current state (recomputes energy and fields, O(N^2)).
    void set_state(qubo::bit_vector bits);

    /// One pass over all variables at inverse exploration strength
    /// `temperature` (>= 0; 0 means strictly-greedy descent moves only),
    /// taking its uniforms from `draws`.  Returns the number of accepted
    /// flips.  Defined inline below: this is the innermost loop of every
    /// sweep solver, and keeping it visible to the caller's translation unit
    /// is worth ~2x on the solve hot path.
    std::size_t sweep(double temperature, draw_cursor& draws);

    /// One sweep drawing from `rng` through a cursor of its own.
    std::size_t sweep(double temperature, util::rng& rng) {
        draw_cursor draws(rng);
        return sweep(temperature, draws);
    }

    /// Proposes a single flip of variable i (Metropolis rule); returns true
    /// if accepted.
    bool try_flip(std::size_t i, double temperature, util::rng& rng);

    /// Unconditionally flips variable i (used by move-always heuristics such
    /// as tabu search).
    void force_flip(std::size_t i);

    [[nodiscard]] const qubo::bit_vector& state() const noexcept { return bits_; }
    [[nodiscard]] double energy() const noexcept { return energy_; }
    [[nodiscard]] std::size_t num_variables() const noexcept { return bits_.size(); }

    /// Current local field of variable i (see qubo_model::local_field).
    [[nodiscard]] double field(std::size_t i) const { return fields_.at(i); }

    /// All current local fields — lets hot solver loops read fields through
    /// a raw pointer instead of per-element bounds-checked field() calls.
    [[nodiscard]] const std::vector<double>& fields() const noexcept { return fields_; }

private:
    void rebuild();

    /// The accept body of try_flip and sweep: proposes flipping variable i,
    /// calling `draw()` for a uniform only on an uphill move at T > 0.
    template <typename Draw>
    bool propose(std::size_t i, double temperature, Draw&& draw);

    const qubo::qubo_model* model_ = nullptr;
    qubo::bit_vector bits_;
    std::vector<double> fields_;
    double energy_ = 0.0;
};

// Hot-path flip kernels, inline so sweep solvers see them without a
// cross-translation-unit call per proposed flip.  The arithmetic is
// byte-for-byte the historical out-of-line implementation — moving it here
// changes where the code is emitted, not what it computes.

inline void metropolis_engine::force_flip(std::size_t i) {
    const double delta = bits_[i] ? -fields_[i] : fields_[i];
    const double step = bits_[i] ? -1.0 : 1.0;  // q_i change
    bits_[i] ^= 1U;
    energy_ += delta;
    // Branchless field update: run the axpy over the full row (which the
    // compiler vectorises), then undo the one j == i term the skipping loop
    // never touched.  fields_[i] is restored exactly, every other entry sees
    // the identical single fused add, so the state is bit-identical to the
    // branchy per-element loop.
    const double saved_fi = fields_[i];
    const double* row = model_->row(i).data();
    double* f = fields_.data();
    const std::size_t n = bits_.size();
    for (std::size_t j = 0; j < n; ++j) f[j] += row[j] * step;
    f[i] = saved_fi;
}

template <typename Draw>
bool metropolis_engine::propose(std::size_t i, double temperature, Draw&& draw) {
    const double delta = bits_[i] ? -fields_[i] : fields_[i];
    const bool accept =
        delta <= 0.0 || (temperature > 0.0 && accept_uphill(draw(), delta, temperature));
    if (accept) force_flip(i);
    return accept;
}

inline bool metropolis_engine::try_flip(std::size_t i, double temperature, util::rng& rng) {
    if (temperature < 0.0) throw std::invalid_argument("metropolis: negative temperature");
    return propose(i, temperature, [&rng] { return rng.uniform(); });
}

inline std::size_t metropolis_engine::sweep(double temperature, draw_cursor& draws) {
    if (temperature < 0.0) throw std::invalid_argument("metropolis: negative temperature");
    std::size_t accepted = 0;
    const std::size_t n = bits_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (propose(i, temperature, [&draws] { return draws.uniform(); })) ++accepted;
    }
    return accepted;
}

}  // namespace hcq::solvers

#endif  // HCQ_CLASSICAL_METROPOLIS_H
