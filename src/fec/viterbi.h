// Soft-decision Viterbi decoder for the terminated convolutional codes of
// conv.h.
//
// Metric: the decoder MAXIMISES the correlation between the candidate coded
// sequence and the received LLRs under the repository's sign convention
// (wireless/soft.h: positive LLR favours bit 0) — a branch whose coded bit
// is 0 adds +llr, a coded bit of 1 adds -llr, generator by generator in
// order.  Hard-decision decoding is the special case llr in {+1, -1}.
//
// Determinism: start and end anchored at state 0 (the encoder terminates
// with K-1 zero tail bits).  Every next state has exactly two predecessors,
// which differ only in the bit the shift register drops; the upper one
// survives only when its metric is strictly greater, so on a metric tie the
// LOWER predecessor wins and decoded bits are a pure function of the LLR
// vector.
#ifndef HCQ_FEC_VITERBI_H
#define HCQ_FEC_VITERBI_H

#include <cstdint>
#include <span>
#include <vector>

#include "fec/conv.h"

namespace hcq::fec {

class viterbi_decoder {
public:
    /// Most generators a decoder accepts: a branch's output pattern (one
    /// bit per generator) indexes the per-step addend table and is stored
    /// in one byte.
    static constexpr std::size_t max_generators = 8;

    /// Same parameter contract as conv_encoder (they must match to decode),
    /// plus at most max_generators generators; throws std::invalid_argument
    /// otherwise.
    viterbi_decoder(std::size_t constraint_length, std::vector<std::uint32_t> generators);

    /// Reusable trellis storage; a warmed-up decoder+scratch pair decodes
    /// without allocating.
    struct scratch {
        std::vector<double> metric;       ///< per-state path metric, current step
        std::vector<double> next_metric;  ///< per-state path metric, next step
        /// Current step's signed LLR terms: entry pattern * generators + j
        /// is generator j's term for output pattern `pattern`.
        std::vector<double> addends;
        /// Per (step, next state): the bit the surviving predecessor drops
        /// (0 = the lower predecessor).
        std::vector<std::uint8_t> decisions;
    };

    /// Decodes `llrs` (deinterleaved, length (info_bits + K - 1) *
    /// num_generators) into `info_bits` information bits written to `out`
    /// (resized).  Throws std::invalid_argument on a length mismatch.
    void decode(std::span<const double> llrs, std::size_t info_bits, scratch& s,
                std::vector<std::uint8_t>& out) const;

    [[nodiscard]] std::size_t constraint_length() const noexcept { return k_; }

private:
    std::size_t k_;
    std::vector<std::uint32_t> generators_;
    std::size_t num_states_;
    /// Precomputed branch outputs: outputs_[(b << (K-1)) | state] packs the
    /// generator outputs of that window, bit j = generator j's output.
    std::vector<std::uint8_t> outputs_;
};

}  // namespace hcq::fec

#endif  // HCQ_FEC_VITERBI_H
