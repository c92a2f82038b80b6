// The coding layer (src/fec/): spec grammar, the interleaver permutation,
// the hand-checked convolutional encoder, zero-noise and noisy Viterbi
// round trips (soft decisions must beat hard ones), bit-exact agreement of
// the decoder and the per-symbol demapper with straightforward reference
// scans, and the canonical LLR clamp contract of wireless/soft.h that the
// whole soft chain leans on.
#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fec/code_spec.h"
#include "fec/codec.h"
#include "fec/conv.h"
#include "fec/interleaver.h"
#include "fec/viterbi.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "util/rng.h"
#include "wireless/mimo.h"
#include "wireless/modulation.h"
#include "wireless/soft.h"

namespace {

using namespace hcq;

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

TEST(FecSpec, ParsesAndCanonicalises) {
    const auto spec = fec::code_spec::parse("k7");
    EXPECT_EQ(spec.to_string(), "k7:interleave=16x8");
    EXPECT_EQ(spec.constraint_length(), 7u);
    EXPECT_EQ(spec.coded_bits(), 128u);
    EXPECT_EQ(spec.info_bits(), 64u - 6u);  // rate 1/2 minus the K-1 tail

    const auto small = fec::code_spec::parse("k5:interleave=8x8");
    EXPECT_EQ(small.to_string(), "k5:interleave=8x8");
    EXPECT_EQ(small.info_bits(), 32u - 4u);

    // parse(to_string()) is the identity for every kind.
    for (const auto& kind : fec::code_spec::kinds()) {
        const auto parsed = fec::code_spec::parse(kind);
        EXPECT_EQ(fec::code_spec::parse(parsed.to_string()).to_string(),
                  parsed.to_string())
            << kind;
    }
}

TEST(FecSpec, RejectsNonsenseSelfDocumentingly) {
    try {
        (void)fec::code_spec::parse("k9");
        FAIL() << "unknown kind accepted";
    } catch (const std::invalid_argument& e) {
        // The registry style: the error lists the valid kinds.
        EXPECT_NE(std::string(e.what()).find("k7"), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)fec::code_spec::parse("k7:width=8"), std::invalid_argument);
    EXPECT_THROW((void)fec::code_spec::parse("k7:rate=2/3"), std::invalid_argument);
    // An interleaver too small to carry one information bit past the tail.
    EXPECT_THROW((void)fec::code_spec::parse("k7:interleave=2x2"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Interleaver
// ---------------------------------------------------------------------------

TEST(FecInterleaver, DeinterleaveIsTheExactInverse) {
    const fec::interleaver inter(5, 7);
    util::rng rng(3);
    const auto data = rng.bits(inter.size());
    std::vector<std::uint8_t> mixed(inter.size());
    std::vector<std::uint8_t> back(inter.size());
    inter.interleave<std::uint8_t>(data, mixed);
    inter.deinterleave<std::uint8_t>(mixed, back);
    EXPECT_EQ(back, data);
    EXPECT_NE(mixed, data);  // 5x7 genuinely permutes
}

TEST(FecInterleaver, OneRowAndOneColumnAreTheIdentity) {
    const std::pair<std::size_t, std::size_t> dims[] = {{1, 9}, {9, 1}};
    for (const auto& [r, c] : dims) {
        const fec::interleaver inter(r, c);
        util::rng rng(4);
        const auto data = rng.bits(inter.size());
        std::vector<std::uint8_t> mixed(inter.size());
        inter.interleave<std::uint8_t>(data, mixed);
        EXPECT_EQ(mixed, data) << r << "x" << c;
    }
}

TEST(FecInterleaver, SpreadsABurstAtLeastColsApart) {
    const fec::interleaver inter(8, 8);
    // Burst positions r*cols + c? No — a channel burst hits the INTERLEAVED
    // stream; mark `rows` consecutive interleaved indices and check their
    // deinterleaved positions are pairwise >= cols apart.
    std::vector<std::uint8_t> marked(inter.size(), 0);
    for (std::size_t i = 16; i < 16 + inter.rows(); ++i) marked[i] = 1;
    std::vector<std::uint8_t> out(inter.size());
    inter.deinterleave<std::uint8_t>(marked, out);
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i]) hits.push_back(i);
    }
    ASSERT_EQ(hits.size(), inter.rows());
    for (std::size_t i = 1; i < hits.size(); ++i) {
        EXPECT_GE(hits[i] - hits[i - 1], inter.cols());
    }
}

// ---------------------------------------------------------------------------
// Convolutional encoder
// ---------------------------------------------------------------------------

TEST(FecConv, MatchesHandComputedK3Codeword) {
    // K=3, generators (7, 5) octal; info 1,0,1,1 then two zero tail bits.
    // Worked by hand from the documented convention
    // (full = (b << (K-1)) | state, out_j = parity(full & g_j)).
    const fec::conv_encoder enc(3, {07, 05});
    const std::vector<std::uint8_t> info{1, 0, 1, 1};
    std::vector<std::uint8_t> coded;
    enc.encode(info, coded);
    const std::vector<std::uint8_t> expected{1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1};
    EXPECT_EQ(coded, expected);
}

TEST(FecConv, TerminationReturnsToStateZero) {
    // Any info word's last K-1 coded pairs depend only on the tail driving
    // the register to zero — encode the all-zero word and a random word and
    // check both codewords end with the encoder back at rest (the all-zero
    // word's codeword is all zero, so termination means trailing zeros).
    const fec::conv_encoder enc(5, {023, 035});
    std::vector<std::uint8_t> coded;
    enc.encode(std::vector<std::uint8_t>(12, 0), coded);
    for (const auto b : coded) EXPECT_EQ(b, 0);
    EXPECT_EQ(coded.size(), enc.coded_length(12));
}

// ---------------------------------------------------------------------------
// Codec round trips
// ---------------------------------------------------------------------------

TEST(FecCodec, ZeroNoiseRoundTripsEveryKind) {
    for (const auto& kind : fec::code_spec::kinds()) {
        fec::codec codec(fec::code_spec::parse(kind));
        util::rng rng(11);
        std::vector<std::uint8_t> coded;
        std::vector<double> llrs(codec.coded_bits());
        std::vector<std::uint8_t> decoded;
        for (int frame = 0; frame < 8; ++frame) {
            const auto info = rng.bits(codec.info_bits());
            codec.encode_frame(info, coded);
            for (std::size_t i = 0; i < coded.size(); ++i) {
                llrs[i] = wireless::signed_llr(coded[i], 10.0);
            }
            codec.decode_frame(llrs, decoded);
            EXPECT_EQ(decoded, info) << kind << " frame " << frame;
        }
    }
}

TEST(FecCodec, RecoversARowLongErasureBurst) {
    // An 8-deep erasure burst (LLR 0: no information) on the interleaved
    // stream lands >= cols apart after deinterleaving, well within what the
    // K=5 code corrects when every other bit is confidently right.
    fec::codec codec(fec::code_spec::parse("k5:interleave=8x8"));
    util::rng rng(13);
    const auto info = rng.bits(codec.info_bits());
    std::vector<std::uint8_t> coded;
    codec.encode_frame(info, coded);
    std::vector<double> llrs(codec.coded_bits());
    for (std::size_t i = 0; i < coded.size(); ++i) {
        llrs[i] = wireless::signed_llr(coded[i], 8.0);
    }
    for (std::size_t i = 24; i < 32; ++i) llrs[i] = 0.0;  // the burst
    std::vector<std::uint8_t> decoded;
    codec.decode_frame(llrs, decoded);
    EXPECT_EQ(decoded, info);
}

TEST(FecCodec, SoftDecisionsBeatHardDecisionsOnAwgn) {
    // Rate-1/2 BPSK over AWGN at a fixed seed: decode the same noisy frames
    // once from the true channel LLRs (2y/sigma^2) and once from
    // sign-only hard decisions (every magnitude equal).  Soft decoding must
    // come out strictly ahead on information-bit errors.
    fec::codec codec(fec::code_spec::parse("k5:interleave=8x8"));
    util::rng rng(17);
    const double sigma = 1.1;
    std::size_t soft_errors = 0;
    std::size_t hard_errors = 0;
    std::vector<std::uint8_t> coded;
    std::vector<double> soft(codec.coded_bits());
    std::vector<double> hard(codec.coded_bits());
    std::vector<std::uint8_t> decoded;
    for (int frame = 0; frame < 300; ++frame) {
        const auto info = rng.bits(codec.info_bits());
        codec.encode_frame(info, coded);
        for (std::size_t i = 0; i < coded.size(); ++i) {
            const double tx = coded[i] == 0 ? 1.0 : -1.0;
            const double y = tx + sigma * rng.normal();
            soft[i] = wireless::clamp_llr(2.0 * y / (sigma * sigma));
            hard[i] = wireless::signed_llr(y >= 0.0 ? 0 : 1, 1.0);
        }
        codec.decode_frame(soft, decoded);
        for (std::size_t i = 0; i < decoded.size(); ++i) {
            soft_errors += decoded[i] != info[i];
        }
        codec.decode_frame(hard, decoded);
        for (std::size_t i = 0; i < decoded.size(); ++i) {
            hard_errors += decoded[i] != info[i];
        }
    }
    EXPECT_GT(hard_errors, 0u);  // the operating point is genuinely noisy
    EXPECT_LT(soft_errors, hard_errors);
}

TEST(FecCodec, DecodeIsAPureFunctionOfTheLlrs) {
    fec::codec codec(fec::code_spec::parse("k3:interleave=4x8"));
    util::rng rng(19);
    const auto info = rng.bits(codec.info_bits());
    std::vector<std::uint8_t> coded;
    codec.encode_frame(info, coded);
    std::vector<double> llrs(codec.coded_bits());
    for (std::size_t i = 0; i < coded.size(); ++i) {
        llrs[i] = wireless::signed_llr(coded[i], 2.5) + 0.1 * rng.normal();
    }
    std::vector<std::uint8_t> first;
    std::vector<std::uint8_t> again;
    codec.decode_frame(llrs, first);
    codec.decode_frame(llrs, again);  // warm scratch, same input, same output
    EXPECT_EQ(first, again);
    fec::codec fresh(fec::code_spec::parse("k3:interleave=4x8"));
    fresh.decode_frame(llrs, again);  // cold instance agrees too
    EXPECT_EQ(first, again);
}

// ---------------------------------------------------------------------------
// Reference equality: the Viterbi decoder and the per-symbol demapper against
// straightforward scans
// ---------------------------------------------------------------------------

/// Reference soft Viterbi: for every step, scans every (input bit, previous
/// state) candidate in ascending order, skipping unreachable states, and
/// keeps a candidate only on a strictly greater metric.  Same trellis
/// convention and metric as fec::viterbi_decoder.
std::vector<std::uint8_t> reference_viterbi(std::span<const double> llrs, std::size_t k,
                                            const std::vector<std::uint32_t>& generators,
                                            std::size_t info_bits) {
    const std::size_t num_states = std::size_t{1} << (k - 1);
    const std::size_t branch = generators.size();
    const std::size_t steps = info_bits + k - 1;
    constexpr double neg_inf = -std::numeric_limits<double>::infinity();
    std::vector<double> metric(num_states, neg_inf);
    std::vector<double> next_metric(num_states);
    std::vector<std::uint8_t> decisions(steps * num_states, 0);
    metric[0] = 0.0;
    for (std::size_t t = 0; t < steps; ++t) {
        const bool tail = t >= info_bits;
        for (auto& m : next_metric) m = neg_inf;
        for (std::uint32_t b = 0; b <= (tail ? 0U : 1U); ++b) {
            for (std::size_t prev = 0; prev < num_states; ++prev) {
                if (metric[prev] == neg_inf) continue;
                const std::uint32_t full = (b << (k - 1)) | static_cast<std::uint32_t>(prev);
                double m = metric[prev];
                for (std::size_t j = 0; j < branch; ++j) {
                    const double llr = llrs[t * branch + j];
                    m += (std::popcount(full & generators[j]) & 1) != 0 ? -llr : llr;
                }
                const std::size_t next = full >> 1;
                if (m > next_metric[next]) {
                    next_metric[next] = m;
                    decisions[t * num_states + next] = static_cast<std::uint8_t>(full & 1U);
                }
            }
        }
        std::swap(metric, next_metric);
    }
    std::vector<std::uint8_t> out(info_bits);
    std::size_t state = 0;
    for (std::size_t t = steps; t-- > 0;) {
        const std::uint8_t lsb = decisions[t * num_states + state];
        if (t < info_bits) out[t] = static_cast<std::uint8_t>((state << 1) >> (k - 1));
        state = ((state << 1) | lsb) & (num_states - 1);
    }
    return out;
}

/// Fills `llrs` (coded order) for a codeword `coded` in one of six styles:
/// 0 noisy soft values; 1 values drawn from {-cap, -1, 0, 1, cap}; 2 the
/// codeword at +/-cap with erasures (0) and flips; 3 small integers;
/// 4 decimal fractions such as 0.1 and 0.2, whose sums round differently
/// when regrouped, so a decoder that reorders a candidate's additions picks
/// different survivors; 5 all zeros.  Styles 1-3 and 5 are full of exact
/// metric ties.
void fill_tie_prone_llrs(int style, const std::vector<std::uint8_t>& coded, util::rng& rng,
                         std::vector<double>& llrs) {
    const double cap = wireless::llr_cap;
    const double palette[] = {-cap, -1.0, 0.0, 1.0, cap};
    const double fractions[] = {-0.7, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.7};
    llrs.resize(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
        switch (style) {
            case 0: llrs[i] = wireless::signed_llr(coded[i], 2.0) + 1.5 * rng.normal(); break;
            case 1: llrs[i] = palette[rng.uniform_index(5)]; break;
            case 2: {
                const std::size_t roll = rng.uniform_index(8);
                const auto bit = static_cast<std::uint8_t>(roll == 0 ? coded[i] ^ 1U : coded[i]);
                llrs[i] = roll <= 2 ? 0.0 : wireless::signed_llr(bit, cap);
                break;
            }
            case 3: llrs[i] = static_cast<double>(rng.uniform_index(5)) - 2.0; break;
            case 4: llrs[i] = fractions[rng.uniform_index(8)]; break;
            default: llrs[i] = 0.0; break;
        }
    }
}

TEST(FecViterbiReference, DecodeFrameMatchesScanAllPredecessors) {
    for (const auto& kind : fec::code_spec::kinds()) {
        const auto spec = fec::code_spec::parse(kind);
        fec::codec codec(spec);
        const fec::interleaver inter(spec.rows, spec.cols);
        util::rng rng(31);
        std::vector<std::uint8_t> coded;
        std::vector<double> llrs;
        std::vector<double> deinterleaved(codec.coded_bits());
        std::vector<std::uint8_t> decoded;
        for (int frame = 0; frame < 180; ++frame) {
            codec.encode_frame(rng.bits(codec.info_bits()), coded);
            fill_tie_prone_llrs(frame % 6, coded, rng, llrs);
            codec.decode_frame(llrs, decoded);
            inter.deinterleave<double>(llrs, deinterleaved);
            EXPECT_EQ(decoded, reference_viterbi(deinterleaved, spec.constraint_length(),
                                                 spec.generators(), codec.info_bits()))
                << kind << " frame " << frame << " style " << frame % 6;
        }
    }
}

TEST(FecViterbiReference, OtherRatesMatchScanAllPredecessors) {
    // code_spec only builds rate-1/2 codes; the decoder's general path
    // (any generator count up to max_generators) is checked directly.
    const std::pair<std::size_t, std::vector<std::uint32_t>> codes[] = {
        {7, {0133, 0171, 0165}},                       // rate 1/3
        {4, {017, 013, 015, 011, 016, 012, 014, 07}},  // rate 1/8
        {2, {03}},                                     // rate 1
    };
    util::rng rng(37);
    constexpr std::size_t info_bits = 40;
    for (const auto& [k, generators] : codes) {
        const fec::conv_encoder encoder(k, generators);
        const fec::viterbi_decoder decoder(k, generators);
        fec::viterbi_decoder::scratch scratch;
        std::vector<std::uint8_t> coded;
        std::vector<double> llrs;
        std::vector<std::uint8_t> decoded;
        for (int frame = 0; frame < 60; ++frame) {
            encoder.encode(rng.bits(info_bits), coded);
            fill_tie_prone_llrs(frame % 6, coded, rng, llrs);
            decoder.decode(llrs, info_bits, scratch, decoded);
            EXPECT_EQ(decoded, reference_viterbi(llrs, k, generators, info_bits))
                << "K=" << k << " rate 1/" << generators.size() << " frame " << frame;
        }
    }
}

TEST(FecViterbi, RejectsMoreGeneratorsThanTheAddendTableHolds) {
    // 33 generators used to shift a packed output word past its 32 bits.
    const std::vector<std::uint32_t> many(33, 07);
    EXPECT_NO_THROW((void)fec::conv_encoder(3, many));
    EXPECT_THROW((void)fec::viterbi_decoder(3, many), std::invalid_argument);
    const std::vector<std::uint32_t> nine(fec::viterbi_decoder::max_generators + 1, 05);
    EXPECT_THROW((void)fec::viterbi_decoder(3, nine), std::invalid_argument);
    const std::vector<std::uint32_t> eight(fec::viterbi_decoder::max_generators, 05);
    EXPECT_NO_THROW((void)fec::viterbi_decoder(3, eight));
}

/// The per-symbol max-log LLRs by a scan of every constellation point.
std::vector<double> reference_symbol_llrs(wireless::modulation mod, std::complex<double> eq,
                                          double noise_variance) {
    const auto points = wireless::constellation(mod);
    const std::size_t bps = wireless::bits_per_symbol(mod);
    std::vector<double> min0(bps, std::numeric_limits<double>::infinity());
    std::vector<double> min1(bps, std::numeric_limits<double>::infinity());
    for (std::size_t pattern = 0; pattern < points.size(); ++pattern) {
        const double dist = std::norm(eq - points[pattern]);
        for (std::size_t b = 0; b < bps; ++b) {
            auto& best = ((pattern >> (bps - 1 - b)) & 1U) != 0 ? min1[b] : min0[b];
            best = std::min(best, dist);
        }
    }
    std::vector<double> llrs(bps);
    for (std::size_t b = 0; b < bps; ++b) {
        llrs[b] = wireless::clamp_llr((min1[b] - min0[b]) / noise_variance);
    }
    return llrs;
}

TEST(SoftDemapperReference, SymbolLlrsMatchAConstellationScan) {
    util::rng rng(41);
    const double noise_variances[] = {1e-12, 0.013, 0.5, 1.0, 7.25};
    for (const auto mod : wireless::all_modulations()) {
        const std::size_t bps = wireless::bits_per_symbol(mod);
        // Exact lattice points and midpoints (equidistant levels tie), the
        // origin and a negative zero, far-out values, squares that overflow
        // to infinity, a NaN, and random draws.
        constexpr double nan = std::numeric_limits<double>::quiet_NaN();
        std::vector<std::complex<double>> probes = {
            {0.0, 0.0}, {-0.0, -0.0}, {2.0, -4.0}, {1.0, 3.0}, {-7.0, 7.0}, {8.0, -8.0},
            {1e6, -1e6}, {-3.5, 0.25}, {1e200, 0.5}, {0.5, -1e200}, {nan, 1.0}};
        for (const auto& p : wireless::constellation(mod)) probes.push_back(p);
        for (int i = 0; i < 400; ++i) {
            const double spread = i % 2 == 0 ? 1.0 : 6.0;
            probes.emplace_back(spread * rng.normal(), spread * rng.normal());
        }
        for (int i = 0; i < 100; ++i) {  // on and between the integer grid
            probes.emplace_back(static_cast<double>(rng.uniform_index(17)) - 8.0,
                                static_cast<double>(rng.uniform_index(17)) - 8.0);
        }
        std::vector<double> out(bps);
        for (const auto& eq : probes) {
            for (const double nv : noise_variances) {
                wireless::symbol_llrs_into(mod, eq, nv, out);
                const auto expected = reference_symbol_llrs(mod, eq, nv);
                for (std::size_t b = 0; b < bps; ++b) {
                    EXPECT_EQ(out[b], expected[b])
                        << wireless::to_string(mod) << " eq " << eq << " nv " << nv << " bit " << b;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The canonical LLR clamp contract (wireless/soft.h)
// ---------------------------------------------------------------------------

TEST(FecLlrContract, ClampMapsNonFiniteToSafeValues) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(wireless::clamp_llr(nan), 0.0);
    EXPECT_EQ(wireless::clamp_llr(inf), wireless::llr_cap);
    EXPECT_EQ(wireless::clamp_llr(-inf), -wireless::llr_cap);
    EXPECT_EQ(wireless::clamp_llr(2.0 * wireless::llr_cap), wireless::llr_cap);
    EXPECT_EQ(wireless::clamp_llr(3.25), 3.25);  // in-range passthrough
    EXPECT_EQ(wireless::signed_llr(0, 5.0), 5.0);
    EXPECT_EQ(wireless::signed_llr(1, 5.0), -5.0);
}

TEST(FecLlrContract, AccumulateSaturatesInsteadOfOverflowing) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> sum{wireless::llr_cap, -3.0, 1.0};
    const std::vector<double> add{wireless::llr_cap, nan, -2.5};
    wireless::accumulate_llrs(add, sum);
    EXPECT_EQ(sum[0], wireless::llr_cap);  // cap + cap stays at the cap
    EXPECT_EQ(sum[1], -3.0);               // NaN addend contributes nothing
    EXPECT_EQ(sum[2], -1.5);
    for (const double l : sum) {
        EXPECT_TRUE(std::isfinite(l));
        EXPECT_LE(std::abs(l), wireless::llr_cap);
    }
    std::vector<double> mismatched{1.0};
    EXPECT_THROW(wireless::accumulate_llrs(sum, mismatched), std::invalid_argument);
}

TEST(FecLlrContract, NoiselessInstancesStillProduceFiniteLlrs) {
    // snr -> infinity is the regression that motivated the central clamp: a
    // zero noise variance must floor at llr_noise_floor, never divide to
    // inf/NaN, for both soft-output families.
    wireless::mimo_config mimo;
    mimo.mod = wireless::modulation::qam16;
    mimo.num_users = 4;
    mimo.num_antennas = 4;
    mimo.channel = wireless::channel_model::unit_gain_random_phase;
    mimo.noise_variance = 0.0;
    util::rng rng(23);
    const auto instance = wireless::synthesize(rng, mimo);

    std::vector<double> llrs;
    wireless::flip_recost_llrs_into(instance, instance.tx_bits, llrs);
    ASSERT_EQ(llrs.size(), instance.tx_bits.size());
    for (const double l : llrs) {
        EXPECT_TRUE(std::isfinite(l));
        EXPECT_LE(std::abs(l), wireless::llr_cap);
    }

    // The linear path's post-equalisation soft output on the same instance.
    const auto zf = paths::registry::make("zf");
    util::rng solve_rng(29);
    paths::workspace ws;
    const paths::path_context ctx{instance, nullptr, solve_rng, &ws};
    auto det = zf->run(ctx);
    zf->soft_output(ctx, det);
    ASSERT_EQ(det.llrs.size(), instance.tx_bits.size());
    std::vector<std::uint8_t> hardened;
    for (const double l : det.llrs) {
        EXPECT_TRUE(std::isfinite(l));
        EXPECT_LE(std::abs(l), wireless::llr_cap);
    }
    wireless::harden_into(det.llrs, hardened);
    EXPECT_EQ(hardened, det.bits);  // soft and hard views agree
}

}  // namespace
