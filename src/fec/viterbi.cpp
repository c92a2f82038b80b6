#include "fec/viterbi.h"

#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

namespace hcq::fec {

namespace {

/// One add-compare-select step over the butterflies of the trellis:
/// predecessors 2i and 2i + 1 feed next states i and i + half (the latter
/// only outside the tail, whose forced 0 bit leaves the upper half
/// unreachable).  `Branch` is the generator count when it is known at
/// compile time, 0 to read it from `branch`.
template <std::size_t Branch>
void acs_step(const double* metric, const double* addends, const std::uint8_t* outputs,
              std::size_t half, std::size_t branch, bool tail, double* next,
              std::uint8_t* decide) {
    const std::size_t nb = Branch != 0 ? Branch : branch;
    const auto survive = [&](std::size_t ns, double m_lower, double m_upper) {
        const double* lower_terms = addends + outputs[2 * ns] * nb;
        const double* upper_terms = addends + outputs[2 * ns + 1] * nb;
        // Each candidate adds its terms in generator order, as
        // (metric + s_0) + s_1 + ..., so metrics are exact functions of the
        // LLRs however the trellis is scanned.
        for (std::size_t j = 0; j < nb; ++j) {
            m_lower += lower_terms[j];
            m_upper += upper_terms[j];
        }
        const bool upper = m_upper > m_lower;  // strict: the lower predecessor wins ties
        next[ns] = upper ? m_upper : m_lower;
        decide[ns] = static_cast<std::uint8_t>(upper);
    };
    for (std::size_t i = 0; i < half; ++i) {
        survive(i, metric[2 * i], metric[2 * i + 1]);
        if (!tail) survive(i + half, metric[2 * i], metric[2 * i + 1]);
    }
}

}  // namespace

viterbi_decoder::viterbi_decoder(std::size_t constraint_length,
                                 std::vector<std::uint32_t> generators)
    : k_(constraint_length), generators_(std::move(generators)) {
    // Delegate parameter validation to the encoder's constructor checks.
    (void)conv_encoder(k_, generators_);
    if (generators_.size() > max_generators) {
        throw std::invalid_argument("viterbi: more generators than max_generators (8)");
    }
    num_states_ = std::size_t{1} << (k_ - 1);
    outputs_.resize(num_states_ * 2);
    for (std::uint32_t full = 0; full < outputs_.size(); ++full) {
        std::uint32_t packed = 0;
        for (std::size_t j = 0; j < generators_.size(); ++j) {
            packed |= static_cast<std::uint32_t>(std::popcount(full & generators_[j]) & 1U) << j;
        }
        outputs_[full] = static_cast<std::uint8_t>(packed);
    }
}

// Trellis bookkeeping.  A transition consumes input bit b in state prev:
// full = (b << (K-1)) | prev, next = full >> 1.  Hence b is the MSB of the
// NEXT state (the input bit just shifted in), and next state ns has exactly
// two predecessors, (ns << 1) & mask and that value | 1, whose windows are
// full = 2 ns and 2 ns + 1.  The decoder runs one add-compare-select per
// next state over that pair (acs_step) and stores the dropped LSB of the
// survivor.  The signed LLR terms are tabulated once per step, per output
// pattern, so no candidate branches on its coded bits.
// An unreachable state carries -inf, which propagates through the adds
// and loses every comparison against a reachable one, so it never lies on
// the traceback.
void viterbi_decoder::decode(std::span<const double> llrs, std::size_t info_bits, scratch& s,
                             std::vector<std::uint8_t>& out) const {
    const std::size_t steps = info_bits + k_ - 1;
    const std::size_t branch = generators_.size();
    if (llrs.size() != steps * branch) {
        throw std::invalid_argument("viterbi: LLR length != (info_bits + K - 1) * generators");
    }
    constexpr double neg_inf = -std::numeric_limits<double>::infinity();
    const std::size_t state_mask = num_states_ - 1;
    const std::size_t half = num_states_ / 2;
    const std::size_t patterns = std::size_t{1} << branch;

    s.metric.assign(num_states_, neg_inf);
    s.metric[0] = 0.0;  // the encoder starts in state 0
    s.next_metric.resize(num_states_);
    s.addends.resize(patterns * branch);
    s.decisions.resize(steps * num_states_);

    for (std::size_t t = 0; t < steps; ++t) {
        const double* step_llrs = llrs.data() + t * branch;
        for (std::size_t pattern = 0; pattern < patterns; ++pattern) {
            for (std::size_t j = 0; j < branch; ++j) {
                // Positive LLR favours coded bit 0 (wireless/soft.h).
                s.addends[pattern * branch + j] =
                    ((pattern >> j) & 1U) != 0 ? -step_llrs[j] : step_llrs[j];
            }
        }
        const bool tail = t >= info_bits;  // tail steps carry a forced 0 bit
        double* next = s.next_metric.data();
        std::uint8_t* const decide = s.decisions.data() + t * num_states_;
        if (branch == 2) {  // every code_spec kind is rate 1/2
            acs_step<2>(s.metric.data(), s.addends.data(), outputs_.data(), half, branch, tail,
                        next, decide);
        } else {
            acs_step<0>(s.metric.data(), s.addends.data(), outputs_.data(), half, branch, tail,
                        next, decide);
        }
        if (tail) {
            for (std::size_t ns = half; ns < num_states_; ++ns) next[ns] = neg_inf;
        }
        std::swap(s.metric, s.next_metric);
    }

    // Termination anchors the traceback at state 0; walking back, the input
    // bit of step t is the MSB of the state AFTER step t, and the
    // predecessor re-attaches the stored dropped LSB.
    out.resize(info_bits);
    std::size_t state = 0;
    for (std::size_t t = steps; t-- > 0;) {
        const std::uint8_t lsb = s.decisions[t * num_states_ + state];
        const std::uint8_t b = static_cast<std::uint8_t>((state << 1) >> (k_ - 1));
        if (t < info_bits) out[t] = b;
        state = ((state << 1) | lsb) & state_mask;
    }
}

}  // namespace hcq::fec
