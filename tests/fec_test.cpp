// The coding layer (src/fec/): spec grammar, the interleaver permutation,
// the hand-checked convolutional encoder, zero-noise and noisy Viterbi
// round trips (soft decisions must beat hard ones), and the canonical LLR
// clamp contract of wireless/soft.h that the whole soft chain leans on.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "fec/code_spec.h"
#include "fec/codec.h"
#include "fec/conv.h"
#include "fec/interleaver.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "util/rng.h"
#include "wireless/mimo.h"
#include "wireless/soft.h"

namespace {

using namespace hcq;

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

TEST(FecSpec, ParsesAndCanonicalises) {
    const auto spec = fec::code_spec::parse("k7");
    EXPECT_EQ(spec.to_string(), "k7:rate=1/2,interleave=16x8");
    EXPECT_EQ(spec.constraint_length(), 7u);
    EXPECT_EQ(spec.coded_bits(), 128u);
    EXPECT_EQ(spec.info_bits(), 64u - 6u);  // rate 1/2 minus the K-1 tail

    const auto small = fec::code_spec::parse("k5:interleave=8x8");
    EXPECT_EQ(small.to_string(), "k5:rate=1/2,interleave=8x8");
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
