// Tests for the extension subsystems: SIC detection, soft LLRs, QUBO
// serialisation, and the device noise models.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/device.h"
#include "detect/sic.h"
#include "detect/sphere.h"
#include "detect/transform.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "qubo/brute_force.h"
#include "qubo/generator.h"
#include "qubo/serialize.h"
#include "util/rng.h"
#include "wireless/soft.h"

namespace {

namespace wl = hcq::wireless;
namespace an = hcq::anneal;
namespace q = hcq::qubo;

TEST(Sic, RecoversNoiselessTruth) {
    for (const auto mod : wl::all_modulations()) {
        hcq::util::rng rng(static_cast<std::uint64_t>(mod) + 700);
        const auto inst = wl::noiseless_paper_instance(rng, 5, mod);
        const auto result = hcq::detect::sic_detector().detect(inst);
        EXPECT_EQ(result.bits, inst.tx_bits) << wl::to_string(mod);
        EXPECT_NEAR(result.ml_cost, 0.0, 1e-9);
    }
}

TEST(Sic, CostConsistencyAndOrderingVsZf) {
    hcq::util::rng rng(701);
    double sic_total = 0.0;
    double sd_total = 0.0;
    for (int t = 0; t < 15; ++t) {
        wl::mimo_config config;
        config.mod = wl::modulation::qam16;
        config.num_users = 4;
        config.num_antennas = 6;
        config.channel = wl::channel_model::rayleigh;
        config.noise_variance = 3.0;
        const auto inst = wl::synthesize(rng, config);
        const auto sic = hcq::detect::sic_detector().detect(inst);
        EXPECT_NEAR(sic.ml_cost, inst.ml_cost_bits(sic.bits), 1e-9);
        sic_total += sic.ml_cost;
        sd_total += hcq::detect::sphere_detector().detect(inst).ml_cost;
    }
    EXPECT_LE(sd_total, sic_total + 1e-9);  // exact ML never worse
    EXPECT_EQ(hcq::detect::sic_detector().name(), "SIC");
}

TEST(Soft, SymbolLlrSignsFollowObservation) {
    // BPSK: observation near +1 (bit 1 under the natural map) gives a
    // negative LLR (favouring bit 1); near -1, positive.
    const auto near_plus = wl::symbol_llrs(wl::modulation::bpsk, {0.9, 0.0}, 0.5);
    ASSERT_EQ(near_plus.size(), 1u);
    EXPECT_LT(near_plus[0], 0.0);
    const auto near_minus = wl::symbol_llrs(wl::modulation::bpsk, {-0.9, 0.0}, 0.5);
    EXPECT_GT(near_minus[0], 0.0);
    EXPECT_THROW((void)wl::symbol_llrs(wl::modulation::bpsk, {0.0, 0.0}, 0.0),
                 std::invalid_argument);
}

TEST(Soft, ConfidenceScalesWithNoise) {
    const auto confident = wl::symbol_llrs(wl::modulation::qpsk, {1.0, -1.0}, 0.1);
    const auto hesitant = wl::symbol_llrs(wl::modulation::qpsk, {1.0, -1.0}, 10.0);
    for (std::size_t b = 0; b < confident.size(); ++b) {
        EXPECT_GT(std::fabs(confident[b]), std::fabs(hesitant[b]));
    }
}

TEST(Soft, HardenedLlrsMatchExactSymbolOnCleanObservation) {
    for (const auto mod : wl::all_modulations()) {
        hcq::util::rng rng(static_cast<std::uint64_t>(mod) + 710);
        const auto bits = rng.bits(wl::bits_per_symbol(mod));
        const auto symbol = wl::modulate_symbol(mod, bits);
        const auto llrs = wl::symbol_llrs(mod, symbol, 0.05);
        EXPECT_EQ(wl::harden(llrs), bits) << wl::to_string(mod);
    }
}

TEST(Soft, ZfPathSoftOutputRecoversNoiselessTruth) {
    // The "zf" path's post-equalisation LLRs on a noiseless instance harden
    // back to the transmitted bits.
    hcq::util::rng rng(711);
    const auto inst = wl::noiseless_paper_instance(rng, 4, wl::modulation::qam16);
    const auto zf = hcq::paths::registry::make("zf");
    hcq::paths::workspace ws;
    hcq::util::rng solve_rng(712);
    const hcq::paths::path_context ctx{inst, nullptr, solve_rng, &ws};
    auto det = zf->run(ctx);
    zf->soft_output(ctx, det);
    ASSERT_EQ(det.llrs.size(), inst.num_bits());
    EXPECT_EQ(wl::harden(det.llrs), inst.tx_bits);
}

TEST(Serialize, RoundTripPreservesModel) {
    hcq::util::rng rng(720);
    auto m = q::random_qubo(rng, 9, 0.6, -2.0, 2.0);
    m.set_offset(3.25);
    const auto text = q::to_string(m);
    const auto back = q::from_string(text);
    ASSERT_EQ(back.num_variables(), 9u);
    EXPECT_DOUBLE_EQ(back.offset(), 3.25);
    for (std::size_t i = 0; i < 9; ++i) {
        for (std::size_t j = i; j < 9; ++j) {
            EXPECT_DOUBLE_EQ(back.coefficient(i, j), m.coefficient(i, j));
        }
    }
}

TEST(Serialize, ToleratesCommentsAndBlankLines) {
    const std::string text =
        "# a comment\n\nhcq-qubo v1\n# another\nn 2 offset -1.5\n0 0 2\n# term\n0 1 -3\n";
    const auto m = q::from_string(text);
    EXPECT_EQ(m.num_variables(), 2u);
    EXPECT_DOUBLE_EQ(m.offset(), -1.5);
    EXPECT_DOUBLE_EQ(m.linear(0), 2.0);
    EXPECT_DOUBLE_EQ(m.coefficient(0, 1), -3.0);
}

TEST(Serialize, RejectsMalformedInput) {
    EXPECT_THROW((void)q::from_string(""), std::invalid_argument);
    EXPECT_THROW((void)q::from_string("wrong header\nn 2 offset 0\n"), std::invalid_argument);
    EXPECT_THROW((void)q::from_string("hcq-qubo v1\nnope\n"), std::invalid_argument);
    EXPECT_THROW((void)q::from_string("hcq-qubo v1\nn 2 offset 0\n0 5 1\n"),
                 std::invalid_argument);
    EXPECT_THROW((void)q::from_string("hcq-qubo v1\nn 2 offset 0\n1 0 1\n"),
                 std::invalid_argument);
    EXPECT_THROW((void)q::from_string("hcq-qubo v1\nn 2 offset 0\n0 1 1\n0 1 2\n"),
                 std::invalid_argument);
    EXPECT_THROW((void)q::from_string("hcq-qubo v1\nn 2 offset 0\n0 1 abc\n"),
                 std::invalid_argument);
    // Sizes whose n * n wraps std::size_t: to 0 (2^32) and to 1 ("-1" reads
    // as SIZE_MAX).
    EXPECT_THROW((void)q::from_string("hcq-qubo v1\nn 4294967296 offset 0\n0 1 1\n"),
                 std::invalid_argument);
    EXPECT_THROW((void)q::from_string("hcq-qubo v1\nn -1 offset 0\n0 1 1\n"),
                 std::invalid_argument);
}

TEST(DeviceNoise, ZeroNoiseMatchesBaseline) {
    hcq::util::rng rng_a(730);
    hcq::util::rng rng_b(730);
    const auto m = q::random_qubo(rng_a, 8, 1.0, -1.0, 1.0);
    const auto m2 = q::random_qubo(rng_b, 8, 1.0, -1.0, 1.0);
    const an::annealer_emulator base;
    an::annealer_config cfg;
    cfg.control_noise = 0.0;
    cfg.readout_flip_probability = 0.0;
    const an::annealer_emulator configured(cfg);
    const auto fa = an::anneal_schedule::forward_plain(2.0);
    const auto s1 = base.sample(m, fa, 10, rng_a);
    const auto s2 = configured.sample(m2, fa, 10, rng_b);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s1[i].bits, s2[i].bits);
}

TEST(DeviceNoise, ControlNoiseDegradesSuccess) {
    hcq::util::rng rng(731);
    const auto m = q::random_qubo(rng, 14, 1.0, -1.0, 1.0);
    const auto exact = q::brute_force_minimize(m);
    const auto fa = an::anneal_schedule::forward_plain(4.0);

    const an::annealer_emulator clean;
    an::annealer_config noisy_cfg;
    noisy_cfg.control_noise = 0.5;  // drastic misprogramming
    const an::annealer_emulator noisy(noisy_cfg);

    auto rng1 = rng.derive(1);
    auto rng2 = rng.derive(2);
    const double p_clean =
        clean.sample(m, fa, 80, rng1).success_probability(exact.best_energy);
    const double p_noisy =
        noisy.sample(m, fa, 80, rng2).success_probability(exact.best_energy);
    EXPECT_GE(p_clean, p_noisy);
}

TEST(DeviceNoise, ReadoutFlipsPerturbFrozenRegister) {
    hcq::util::rng rng(732);
    const auto m = q::random_qubo(rng, 20, 1.0, -1.0, 1.0);
    an::annealer_config cfg;
    cfg.readout_flip_probability = 0.5;
    const an::annealer_emulator device(cfg);
    // Frozen hold: without read-out noise the state would be exactly the
    // programmed one.
    const an::anneal_schedule hold({{0.0, 1.0}, {1.0, 1.0}}, "hold");
    const q::bit_vector zeros(20, 0);
    std::size_t flipped = 0;
    for (int read = 0; read < 20; ++read) {
        const auto bits = device.anneal_once(m, hold, rng, zeros);
        for (const auto b : bits) flipped += b;
    }
    EXPECT_GT(flipped, 100u);  // ~200 expected at p = 0.5
    EXPECT_LT(flipped, 300u);
}

TEST(DeviceNoise, ConfigValidation) {
    an::annealer_config cfg;
    cfg.control_noise = -0.1;
    EXPECT_THROW(an::annealer_emulator{cfg}, std::invalid_argument);
    cfg = {};
    cfg.readout_flip_probability = 1.5;
    EXPECT_THROW(an::annealer_emulator{cfg}, std::invalid_argument);
}

}  // namespace
