// Soft information: per-bit log-likelihood ratios (LLRs) — the
// "pre-knowledge of variables (wireless symbols)" the paper's Section 3.1
// proposes feeding into the QUBO as constraints (Figure 4), and the input the
// coded link (src/fec) decodes against.
//
// THE canonical LLR contract, asserted here and nowhere else:
//
//  * Sign convention: LLR_b = log P(b = 0 | y) - log P(b = 1 | y) under the
//    max-log approximation — positive LLR favours bit 0, and |LLR| measures
//    confidence.  Every producer and consumer in the repository uses this
//    convention; applying the sign goes through signed_llr() below, and the
//    llr-sign lint rule (scripts/hcq_lint.py) bans ad-hoc sign flips outside
//    src/fec and this file.
//  * Bit layout: user-major, and within a user the I-dimension bits
//    MSB-first then the Q-dimension bits MSB-first — identical to
//    wireless::modulate and the QUBO/transform layout, so LLR vectors line
//    up index-for-index with mimo_instance::tx_bits.
//  * Range: every stored LLR is finite and within [-llr_cap, +llr_cap]
//    (clamp_llr).  NaN clamps to 0 (no information), +/-inf to +/-llr_cap —
//    so accumulating LLRs (hybrid-ARQ chase combining) can never produce a
//    NaN ordering, even from a noiseless instance.
#ifndef HCQ_WIRELESS_SOFT_H
#define HCQ_WIRELESS_SOFT_H

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "wireless/mimo.h"
#include "wireless/modulation.h"

namespace hcq::wireless {

/// Saturation bound of every stored LLR.  Large enough that no plausible
/// finite channel observation reaches it (post-equalisation LLRs at the
/// noise floor stay orders of magnitude below), small enough that a
/// max_retx-deep chase-combined sum stays comfortably finite.
inline constexpr double llr_cap = 1.0e4;

/// Effective noise-variance floor used when converting costs to LLRs for a
/// (near-)noiseless instance: confidences stay bounded instead of dividing
/// by zero.
inline constexpr double llr_noise_floor = 1e-3;

/// Clamps one LLR into the canonical range: NaN -> 0 (no information),
/// out-of-range / infinite -> +/-llr_cap.
[[nodiscard]] double clamp_llr(double llr) noexcept;

/// The ONLY place a bit value turns into an LLR sign: bit 0 -> +magnitude,
/// bit 1 -> -magnitude (clamped).  `magnitude` should be non-negative;
/// a negative magnitude (a producer whose locally-best word loses to the
/// flip) passes through and flips the favoured bit accordingly.
[[nodiscard]] double signed_llr(std::uint8_t bit, double magnitude) noexcept;

/// Max-log LLRs of every bit of one symbol given a scalar observation
/// `equalized` with effective noise variance `noise_variance` (> 0).
[[nodiscard]] std::vector<double> symbol_llrs(modulation mod, linalg::cxd equalized,
                                              double noise_variance);

/// symbol_llrs into a caller-owned buffer at `out[offset .. offset+bps)` —
/// same values (then clamped via clamp_llr), no allocation after warm-up.
void symbol_llrs_into(modulation mod, linalg::cxd equalized, double noise_variance,
                      std::span<double> out);

/// Per-bit LLRs of a whole instance from its per-user equalised estimates
/// and per-user effective noise variances (canonical layout; clamped).
/// This is the linear detection paths' post-equalisation soft output.
void equalized_llrs_into(const mimo_instance& instance, const linalg::cvec& equalized,
                         std::span<const double> stream_noise_variance,
                         std::vector<double>& out);

/// Reusable buffers of flip_recost_llrs_into: the re-costed word and the
/// symbol and residual buffers of its ML cost.
struct recost_scratch {
    std::vector<std::uint8_t> word;
    linalg::cvec symbols;
    linalg::cvec residual;
};

/// Per-bit LLRs from single-bit-flip ML re-costing of a detected word:
/// LLR_b = (cost of the word with b flipped to 1 ... minus ... flipped to 0)
/// / max(noise_variance, llr_noise_floor), evaluated on the two words that
/// differ from `bits` only at b.  Deterministic, RNG-free, and independent
/// of what `scratch` held before — the soft output of the tree-search and
/// QUBO-solver paths (for the latter this IS the QUBO energy gap at the
/// detected word, by the transform round-trip invariant).  Clamped.  A warm
/// scratch makes the call allocation-free.
void flip_recost_llrs_into(const mimo_instance& instance, std::span<const std::uint8_t> bits,
                           recost_scratch& scratch, std::vector<double>& out);

/// flip_recost_llrs_into on fresh scratch.
void flip_recost_llrs_into(const mimo_instance& instance, std::span<const std::uint8_t> bits,
                           std::vector<double>& out);

/// Hard decisions from LLRs (0 when LLR >= 0).  NaN-safe: a NaN LLR clamps
/// to 0 first (clamp_llr) and therefore hardens to bit 0 — deterministic
/// ordering even for malformed inputs.
[[nodiscard]] std::vector<std::uint8_t> harden(const std::vector<double>& llrs);

/// harden into a caller-owned buffer — same bits, no allocation after
/// warm-up.
void harden_into(std::span<const double> llrs, std::vector<std::uint8_t>& out);

/// Chase-combining accumulate: out[i] = clamp_llr(out[i] + clamp_llr(in[i])).
/// Throws std::invalid_argument on length mismatch.  Clamping both the
/// addend and the sum keeps combined LLRs inside [-llr_cap, llr_cap] no
/// matter how many attempts accumulate.
void accumulate_llrs(std::span<const double> in, std::span<double> out);

}  // namespace hcq::wireless

#endif  // HCQ_WIRELESS_SOFT_H
