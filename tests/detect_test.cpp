// Tests for the classical detectors: exactness of the sphere decoder against
// brute force, linear detector behaviour, K-best/FCSD quality ordering.
#include <gtest/gtest.h>

#include <memory>

#include "detect/fcsd.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/real_model.h"
#include "detect/scratch.h"
#include "detect/sphere.h"
#include "detect/transform.h"
#include "qubo/brute_force.h"
#include "util/rng.h"
#include "wireless/mimo.h"

namespace {

namespace wl = hcq::wireless;
namespace dt = hcq::detect;
using wl::modulation;

wl::mimo_instance noisy_instance(hcq::util::rng& rng, std::size_t users, modulation mod,
                                 double noise_variance, std::size_t extra_antennas = 0) {
    wl::mimo_config config;
    config.mod = mod;
    config.num_users = users;
    config.num_antennas = users + extra_antennas;
    config.channel = wl::channel_model::rayleigh;
    config.noise_variance = noise_variance;
    return wl::synthesize(rng, config);
}

TEST(RealModel, DimensionsPerModulation) {
    hcq::util::rng rng(1);
    const auto bpsk = wl::noiseless_paper_instance(rng, 5, modulation::bpsk);
    EXPECT_EQ(dt::make_real_model(bpsk).dims, 5u);
    const auto qam = wl::noiseless_paper_instance(rng, 5, modulation::qam16);
    const auto model = dt::make_real_model(qam);
    EXPECT_EQ(model.dims, 10u);
    EXPECT_EQ(model.alphabet.size(), 4u);
    EXPECT_DOUBLE_EQ(model.alphabet.front(), -3.0);
    EXPECT_DOUBLE_EQ(model.alphabet.back(), 3.0);
}

TEST(RealModel, SliceAmplitude) {
    const std::vector<double> alphabet{-3.0, -1.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(dt::slice_amplitude(0.2, alphabet), 1.0);
    EXPECT_DOUBLE_EQ(dt::slice_amplitude(-7.0, alphabet), -3.0);
    EXPECT_DOUBLE_EQ(dt::slice_amplitude(2.1, alphabet), 3.0);
    EXPECT_THROW((void)dt::slice_amplitude(0.0, {}), std::invalid_argument);
}

TEST(RealModel, AssembleValidatesSize) {
    hcq::util::rng rng(2);
    const auto inst = wl::noiseless_paper_instance(rng, 3, modulation::qpsk);
    dt::detect_scratch scratch;
    std::vector<std::uint8_t> bits;
    EXPECT_THROW((void)dt::assemble_result_into(inst, std::vector<double>(3, 1.0), scratch, bits),
                 std::invalid_argument);
}

class NoiselessRecovery : public ::testing::TestWithParam<modulation> {};

TEST_P(NoiselessRecovery, ZfRecoversTruth) {
    hcq::util::rng rng(static_cast<std::uint64_t>(GetParam()) + 10);
    const auto inst = wl::noiseless_paper_instance(rng, 6, GetParam());
    const auto result = dt::zf_detector().detect(inst);
    EXPECT_EQ(result.bits, inst.tx_bits);
    EXPECT_NEAR(result.ml_cost, 0.0, 1e-9);
}

TEST_P(NoiselessRecovery, MmseRecoversTruth) {
    hcq::util::rng rng(static_cast<std::uint64_t>(GetParam()) + 20);
    const auto inst = wl::noiseless_paper_instance(rng, 6, GetParam());
    const auto result = dt::mmse_detector().detect(inst);
    EXPECT_EQ(result.bits, inst.tx_bits);
}

TEST_P(NoiselessRecovery, SphereRecoversTruth) {
    hcq::util::rng rng(static_cast<std::uint64_t>(GetParam()) + 30);
    const auto inst = wl::noiseless_paper_instance(rng, 6, GetParam());
    const auto result = dt::sphere_detector().detect(inst);
    EXPECT_EQ(result.bits, inst.tx_bits);
    EXPECT_NEAR(result.ml_cost, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllModulations, NoiselessRecovery,
                         ::testing::Values(modulation::bpsk, modulation::qpsk,
                                           modulation::qam16, modulation::qam64));

class SphereExactness : public ::testing::TestWithParam<modulation> {};

TEST_P(SphereExactness, MatchesBruteForceOnNoisyInstances) {
    const modulation mod = GetParam();
    hcq::util::rng rng(static_cast<std::uint64_t>(mod) * 7 + 100);
    // Keep bit counts <= 12 for brute force.
    const std::size_t users = 12 / wl::bits_per_symbol(mod);
    for (int trial = 0; trial < 5; ++trial) {
        const auto inst = noisy_instance(rng, users, mod, 2.0);
        const auto mq = dt::ml_to_qubo(inst);
        const auto exact = hcq::qubo::brute_force_minimize(mq.model);
        const auto sd = dt::sphere_detector().detect(inst);
        EXPECT_NEAR(sd.ml_cost, exact.best_energy + mq.model.offset(), 1e-7)
            << wl::to_string(mod) << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModulations, SphereExactness,
                         ::testing::Values(modulation::bpsk, modulation::qpsk,
                                           modulation::qam16, modulation::qam64));

TEST(Sphere, HandlesRectangularChannels) {
    hcq::util::rng rng(200);
    const auto inst = noisy_instance(rng, 3, modulation::qam16, 1.0, /*extra antennas*/ 3);
    const auto sd = dt::sphere_detector().detect(inst);
    const auto mq = dt::ml_to_qubo(inst);
    const auto exact = hcq::qubo::brute_force_minimize(mq.model);
    EXPECT_NEAR(sd.ml_cost, exact.best_energy + mq.model.offset(), 1e-7);
}

TEST(Sphere, SmallRadiusFallsBackGracefully) {
    hcq::util::rng rng(201);
    const auto inst = noisy_instance(rng, 2, modulation::qpsk, 1.0);
    const auto result = dt::sphere_detector(1e-12).detect(inst);
    // No lattice point lies inside the radius: the unbounded search's
    // answer, not an empty or partial one.
    const auto unbounded = dt::sphere_detector().detect(inst);
    EXPECT_EQ(result.bits, unbounded.bits);
    EXPECT_EQ(result.ml_cost, unbounded.ml_cost);
}

TEST(KBest, WideBeamEqualsSphere) {
    hcq::util::rng rng(202);
    for (int trial = 0; trial < 4; ++trial) {
        const auto inst = noisy_instance(rng, 3, modulation::qpsk, 1.5);
        // Beam covering the whole tree at these sizes.
        const auto kb = dt::kbest_detector(4096).detect(inst);
        const auto sd = dt::sphere_detector().detect(inst);
        EXPECT_NEAR(kb.ml_cost, sd.ml_cost, 1e-8);
    }
}

TEST(KBest, QualityImprovesWithBeamWidth) {
    hcq::util::rng rng(203);
    double narrow_total = 0.0;
    double wide_total = 0.0;
    for (int trial = 0; trial < 10; ++trial) {
        const auto inst = noisy_instance(rng, 4, modulation::qam16, 4.0);
        narrow_total += dt::kbest_detector(1).detect(inst).ml_cost;
        wide_total += dt::kbest_detector(16).detect(inst).ml_cost;
    }
    EXPECT_LE(wide_total, narrow_total + 1e-9);
}

TEST(KBest, Validation) {
    EXPECT_THROW(dt::kbest_detector(0), std::invalid_argument);
    EXPECT_EQ(dt::kbest_detector(8).name(), "KB8");
    EXPECT_EQ(dt::kbest_detector(8).beam_width(), 8u);
}

TEST(Fcsd, FullEnumerationIsExact) {
    hcq::util::rng rng(204);
    const auto inst = noisy_instance(rng, 2, modulation::qpsk, 1.0);
    const auto model_dims = dt::make_real_model(inst).dims;
    const auto fc = dt::fcsd_detector(model_dims).detect(inst);
    const auto sd = dt::sphere_detector().detect(inst);
    EXPECT_NEAR(fc.ml_cost, sd.ml_cost, 1e-8);
}

TEST(Fcsd, MoreLevelsNeverWorse) {
    hcq::util::rng rng(205);
    double babai_total = 0.0;
    double one_total = 0.0;
    double two_total = 0.0;
    for (int trial = 0; trial < 10; ++trial) {
        const auto inst = noisy_instance(rng, 4, modulation::qam16, 4.0);
        babai_total += dt::fcsd_detector(0).detect(inst).ml_cost;
        one_total += dt::fcsd_detector(1).detect(inst).ml_cost;
        two_total += dt::fcsd_detector(2).detect(inst).ml_cost;
    }
    EXPECT_LE(one_total, babai_total + 1e-9);
    EXPECT_LE(two_total, one_total + 1e-9);
}

TEST(Fcsd, NameAndAccessors) {
    EXPECT_EQ(dt::fcsd_detector(2).name(), "FCSD2");
    EXPECT_EQ(dt::fcsd_detector(2).full_levels(), 2u);
}

TEST(Detectors, ReportedCostMatchesSymbols) {
    hcq::util::rng rng(206);
    const auto inst = noisy_instance(rng, 4, modulation::qam16, 2.0);
    std::vector<std::unique_ptr<dt::detector>> detectors;
    detectors.push_back(std::make_unique<dt::zf_detector>());
    detectors.push_back(std::make_unique<dt::mmse_detector>());
    detectors.push_back(std::make_unique<dt::sphere_detector>());
    detectors.push_back(std::make_unique<dt::kbest_detector>(4));
    detectors.push_back(std::make_unique<dt::fcsd_detector>(1));
    for (const auto& det : detectors) {
        const auto result = det->detect(inst);
        EXPECT_NEAR(result.ml_cost, inst.ml_cost_bits(result.bits), 1e-9) << det->name();
    }
}

TEST(Detectors, MlOrderingHolds) {
    // SD (exact) <= FCSD/KB <= worst-case linear, in ML cost, on average.
    hcq::util::rng rng(207);
    double sd_total = 0.0;
    double kb_total = 0.0;
    double zf_total = 0.0;
    for (int trial = 0; trial < 10; ++trial) {
        const auto inst = noisy_instance(rng, 4, modulation::qam16, 6.0);
        sd_total += dt::sphere_detector().detect(inst).ml_cost;
        kb_total += dt::kbest_detector(8).detect(inst).ml_cost;
        zf_total += dt::zf_detector().detect(inst).ml_cost;
    }
    EXPECT_LE(sd_total, kb_total + 1e-9);
    EXPECT_LE(sd_total, zf_total + 1e-9);
}

TEST(Detectors, MmseBeatsZfUnderHeavyNoise) {
    hcq::util::rng rng(208);
    double zf_errors = 0.0;
    double mmse_errors = 0.0;
    for (int trial = 0; trial < 30; ++trial) {
        const auto inst = noisy_instance(rng, 6, modulation::qpsk, 8.0);
        const auto zf = dt::zf_detector().detect(inst);
        const auto mmse = dt::mmse_detector().detect(inst);
        for (std::size_t b = 0; b < inst.num_bits(); ++b) {
            zf_errors += zf.bits[b] != inst.tx_bits[b] ? 1.0 : 0.0;
            mmse_errors += mmse.bits[b] != inst.tx_bits[b] ? 1.0 : 0.0;
        }
    }
    EXPECT_LE(mmse_errors, zf_errors + 5.0);  // regularisation should not hurt
}

}  // namespace
