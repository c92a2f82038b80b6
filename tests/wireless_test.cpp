// Tests for hcq::wireless — modulation maps, channels, and MIMO instance
// synthesis (the paper's Section 4.2 corpus recipe).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "wireless/channel.h"
#include "wireless/channel_spec.h"
#include "wireless/mimo.h"
#include "wireless/modulation.h"

namespace {

namespace wl = hcq::wireless;
using wl::modulation;

TEST(Modulation, BitCounts) {
    EXPECT_EQ(wl::bits_per_symbol(modulation::bpsk), 1u);
    EXPECT_EQ(wl::bits_per_symbol(modulation::qpsk), 2u);
    EXPECT_EQ(wl::bits_per_symbol(modulation::qam16), 4u);
    EXPECT_EQ(wl::bits_per_symbol(modulation::qam64), 6u);
    EXPECT_EQ(wl::bits_per_dimension(modulation::qam64), 3u);
    EXPECT_FALSE(wl::uses_quadrature(modulation::bpsk));
    EXPECT_TRUE(wl::uses_quadrature(modulation::qpsk));
}

TEST(Modulation, Names) {
    EXPECT_EQ(wl::to_string(modulation::bpsk), "BPSK");
    EXPECT_EQ(wl::to_string(modulation::qam16), "16-QAM");
    EXPECT_EQ(wl::all_modulations().size(), 4u);
}

TEST(Modulation, MeanSymbolEnergy) {
    EXPECT_DOUBLE_EQ(wl::mean_symbol_energy(modulation::bpsk), 1.0);
    EXPECT_DOUBLE_EQ(wl::mean_symbol_energy(modulation::qpsk), 2.0);
    EXPECT_DOUBLE_EQ(wl::mean_symbol_energy(modulation::qam16), 10.0);
    EXPECT_DOUBLE_EQ(wl::mean_symbol_energy(modulation::qam64), 42.0);
}

TEST(Modulation, PamAmplitudeSingleBit) {
    const std::vector<std::uint8_t> zero{0};
    const std::vector<std::uint8_t> one{1};
    EXPECT_DOUBLE_EQ(wl::pam_amplitude(zero), -1.0);
    EXPECT_DOUBLE_EQ(wl::pam_amplitude(one), 1.0);
}

TEST(Modulation, PamAmplitudeTwoBitsNaturalOrder) {
    const std::vector<std::vector<std::uint8_t>> patterns{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    const std::vector<double> expected{-3.0, -1.0, 1.0, 3.0};
    for (std::size_t i = 0; i < patterns.size(); ++i) {
        EXPECT_DOUBLE_EQ(wl::pam_amplitude(patterns[i]), expected[i]);
    }
}

TEST(Modulation, PamAmplitudeThreeBitsCoversLattice) {
    std::set<double> amps;
    for (int p = 0; p < 8; ++p) {
        const std::vector<std::uint8_t> bits{static_cast<std::uint8_t>((p >> 2) & 1),
                                             static_cast<std::uint8_t>((p >> 1) & 1),
                                             static_cast<std::uint8_t>(p & 1)};
        amps.insert(wl::pam_amplitude(bits));
    }
    EXPECT_EQ(amps.size(), 8u);
    EXPECT_DOUBLE_EQ(*amps.begin(), -7.0);
    EXPECT_DOUBLE_EQ(*amps.rbegin(), 7.0);
}

TEST(Modulation, PamAmplitudeRejectsBadInput) {
    EXPECT_THROW((void)wl::pam_amplitude({}), std::invalid_argument);
    const std::vector<std::uint8_t> bad{2};
    EXPECT_THROW((void)wl::pam_amplitude(bad), std::invalid_argument);
}

TEST(Modulation, PamBitsRoundTrip) {
    for (std::size_t k = 1; k <= 3; ++k) {
        const double max_amp = std::pow(2.0, static_cast<double>(k)) - 1.0;
        for (double a = -max_amp; a <= max_amp; a += 2.0) {
            const auto bits = wl::pam_bits(a, k);
            EXPECT_DOUBLE_EQ(wl::pam_amplitude(bits), a) << "k=" << k << " a=" << a;
        }
    }
}

TEST(Modulation, PamBitsSlicesToNearest) {
    EXPECT_DOUBLE_EQ(wl::pam_amplitude(wl::pam_bits(0.4, 2)), 1.0);
    EXPECT_DOUBLE_EQ(wl::pam_amplitude(wl::pam_bits(-0.4, 2)), -1.0);
    EXPECT_DOUBLE_EQ(wl::pam_amplitude(wl::pam_bits(100.0, 2)), 3.0);   // clamps high
    EXPECT_DOUBLE_EQ(wl::pam_amplitude(wl::pam_bits(-100.0, 2)), -3.0); // clamps low
    EXPECT_THROW((void)wl::pam_bits(0.0, 0), std::invalid_argument);
}

class ModulationRoundTrip : public ::testing::TestWithParam<modulation> {};

TEST_P(ModulationRoundTrip, SymbolBitsRoundTrip) {
    const modulation mod = GetParam();
    const std::size_t bps = wl::bits_per_symbol(mod);
    for (std::size_t pattern = 0; pattern < (std::size_t{1} << bps); ++pattern) {
        std::vector<std::uint8_t> bits(bps);
        for (std::size_t j = 0; j < bps; ++j) {
            bits[j] = static_cast<std::uint8_t>((pattern >> (bps - 1 - j)) & 1U);
        }
        const auto symbol = wl::modulate_symbol(mod, bits);
        EXPECT_EQ(wl::demodulate_symbol(mod, symbol), bits);
    }
}

TEST_P(ModulationRoundTrip, VectorRoundTrip) {
    const modulation mod = GetParam();
    hcq::util::rng rng(static_cast<std::uint64_t>(mod) + 100);
    const auto bits = rng.bits(6 * wl::bits_per_symbol(mod));
    const auto symbols = wl::modulate(mod, bits);
    EXPECT_EQ(symbols.size(), 6u);
    EXPECT_EQ(wl::demodulate(mod, symbols), bits);
}

TEST_P(ModulationRoundTrip, ConstellationDistinctAndComplete) {
    const modulation mod = GetParam();
    const auto points = wl::constellation(mod);
    EXPECT_EQ(points.size(), std::size_t{1} << wl::bits_per_symbol(mod));
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j) {
            EXPECT_GT(std::abs(points[i] - points[j]), 0.5);
        }
    }
}

TEST_P(ModulationRoundTrip, ConstellationMeanEnergyMatches) {
    const modulation mod = GetParam();
    const auto points = wl::constellation(mod);
    double acc = 0.0;
    for (const auto& p : points) acc += std::norm(p);
    EXPECT_NEAR(acc / static_cast<double>(points.size()), wl::mean_symbol_energy(mod), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllModulations, ModulationRoundTrip,
                         ::testing::Values(modulation::bpsk, modulation::qpsk,
                                           modulation::qam16, modulation::qam64));

TEST(Modulation, BpskIsReal) {
    const auto points = wl::constellation(modulation::bpsk);
    for (const auto& p : points) EXPECT_DOUBLE_EQ(p.imag(), 0.0);
}

TEST(Modulation, ModulateRejectsWrongBitCount) {
    const std::vector<std::uint8_t> bits{0, 1, 0};
    EXPECT_THROW((void)wl::modulate(modulation::qam16, bits), std::invalid_argument);
    EXPECT_THROW((void)wl::modulate_symbol(modulation::qpsk, bits), std::invalid_argument);
}

TEST(Modulation, GrayCodeRoundTripAndAdjacency) {
    for (std::uint32_t v = 0; v < 64; ++v) {
        EXPECT_EQ(wl::gray_decode(wl::gray_encode(v)), v);
    }
    for (std::uint32_t v = 0; v + 1 < 64; ++v) {
        const std::uint32_t diff = wl::gray_encode(v) ^ wl::gray_encode(v + 1);
        EXPECT_EQ(__builtin_popcount(diff), 1);
    }
}

TEST(Channel, RandomPhaseEntriesHaveUnitModulus) {
    hcq::util::rng rng(7);
    const auto h = wl::draw_channel(rng, wl::channel_model::unit_gain_random_phase, 6, 4);
    EXPECT_EQ(h.rows(), 6u);
    EXPECT_EQ(h.cols(), 4u);
    for (std::size_t r = 0; r < 6; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_NEAR(std::abs(h(r, c)), 1.0, 1e-12);
        }
    }
}

TEST(Channel, RandomPhaseIsActuallyRandom) {
    hcq::util::rng rng(8);
    const auto h = wl::draw_channel(rng, wl::channel_model::unit_gain_random_phase, 4, 4);
    std::set<double> phases;
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 4; ++c) phases.insert(std::arg(h(r, c)));
    }
    EXPECT_GT(phases.size(), 10u);
}

TEST(Channel, RayleighUnitMeanSquare) {
    hcq::util::rng rng(9);
    double acc = 0.0;
    const int n = 200;
    const auto h = wl::draw_channel(rng, wl::channel_model::rayleigh, n, 10);
    for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) {
        for (std::size_t c = 0; c < 10; ++c) acc += std::norm(h(r, c));
    }
    EXPECT_NEAR(acc / (n * 10), 1.0, 0.1);
}

TEST(Channel, RayleighEnvelopeDistributionIsRayleigh) {
    // Goodness of fit for the i.i.d. rayleigh draw itself, not just its mean
    // power: |H_ij| ~ Rayleigh with CDF F(r) = 1 - exp(-r^2) (unit mean
    // square).  KS critical value at alpha=0.01 for n=6000 is
    // 1.63/sqrt(6000) ~= 0.021; fixed seed keeps the run deterministic.
    hcq::util::rng rng(20240807);
    const auto h = wl::draw_channel(rng, wl::channel_model::rayleigh, 100, 60);
    std::vector<double> samples;
    samples.reserve(6000);
    for (std::size_t r = 0; r < 100; ++r) {
        for (std::size_t c = 0; c < 60; ++c) samples.push_back(std::abs(h(r, c)));
    }
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    double ks = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double cdf = 1.0 - std::exp(-samples[i] * samples[i]);
        ks = std::max({ks, std::fabs(cdf - static_cast<double>(i) / n),
                       std::fabs(static_cast<double>(i + 1) / n - cdf)});
    }
    EXPECT_LT(ks, 0.025);
}

TEST(Channel, NoiseVarianceForSnrRealisesRequestedSnr) {
    // Round trip: synthesise y = Hx + n with noise_variance_for_snr and
    // check the REALISED per-antenna SNR (signal power / noise power over
    // many uses) lands on the requested value.  E[|row of Hx|^2] =
    // users * E_s through a unit-mean-square channel, so at 10 dB the ratio
    // must come out near 10.
    const double snr_db = 10.0;
    wl::mimo_config config;
    config.mod = modulation::qam16;
    config.num_users = 4;
    config.num_antennas = 4;
    config.channel = wl::channel_model::rayleigh;
    config.noise_variance = wl::noise_variance_for_snr(config.mod, config.num_users, snr_db);
    hcq::util::rng rng(606);
    double signal_power = 0.0;
    double noise_power = 0.0;
    std::size_t count = 0;
    for (int u = 0; u < 800; ++u) {
        const auto inst = wl::synthesize(rng, config);
        const auto clean = inst.h * inst.tx_symbols;
        for (std::size_t a = 0; a < config.num_antennas; ++a) {
            signal_power += std::norm(clean[a]);
            noise_power += std::norm(inst.y[a] - clean[a]);
            ++count;
        }
    }
    const double realised_snr_db =
        10.0 * std::log10(signal_power / noise_power);
    EXPECT_NEAR(realised_snr_db, snr_db, 0.3);
    // And the noise itself realises the configured variance.
    EXPECT_NEAR(noise_power / static_cast<double>(count), config.noise_variance,
                0.05 * config.noise_variance);
}

TEST(Channel, DrawRejectsEmpty) {
    hcq::util::rng rng(1);
    EXPECT_THROW((void)wl::draw_channel(rng, wl::channel_model::rayleigh, 0, 3),
                 std::invalid_argument);
}

TEST(Channel, AwgnZeroVarianceIsNoOp) {
    hcq::util::rng rng(10);
    hcq::linalg::cvec y(3);
    y[0] = {1.0, 2.0};
    wl::add_awgn(rng, y, 0.0);
    EXPECT_EQ(y[0], hcq::linalg::cxd(1.0, 2.0));
    EXPECT_THROW(wl::add_awgn(rng, y, -1.0), std::invalid_argument);
}

TEST(Channel, AwgnVarianceMatches) {
    hcq::util::rng rng(11);
    const std::size_t n = 20000;
    hcq::linalg::cvec y(n);
    wl::add_awgn(rng, y, 4.0);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += std::norm(y[i]);
    EXPECT_NEAR(acc / static_cast<double>(n), 4.0, 0.15);
}

TEST(Channel, NoiseVarianceForSnr) {
    // 0 dB: noise power == signal power == users * E_s.
    EXPECT_NEAR(wl::noise_variance_for_snr(modulation::qpsk, 4, 0.0), 8.0, 1e-12);
    // +10 dB: one tenth.
    EXPECT_NEAR(wl::noise_variance_for_snr(modulation::qpsk, 4, 10.0), 0.8, 1e-12);
    EXPECT_THROW((void)wl::noise_variance_for_snr(modulation::qpsk, 0, 0.0),
                 std::invalid_argument);
    // A non-finite variance is rejected: NaN dB, and SNRs so low that
    // 10^(snr/10) underflows to 0.  +inf dB is the noiseless limit.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::infinity(), -4000.0}) {
        EXPECT_THROW((void)wl::noise_variance_for_snr(modulation::qpsk, 4, bad),
                     std::invalid_argument);
    }
    EXPECT_EQ(wl::noise_variance_for_snr(modulation::qpsk, 4,
                                         std::numeric_limits<double>::infinity()),
              0.0);
}

TEST(Mimo, NoiselessInstanceSatisfiesModel) {
    hcq::util::rng rng(12);
    const auto inst = wl::noiseless_paper_instance(rng, 6, modulation::qam16);
    EXPECT_EQ(inst.num_users, 6u);
    EXPECT_EQ(inst.num_antennas, 6u);
    EXPECT_EQ(inst.num_bits(), 24u);
    EXPECT_EQ(inst.tx_bits.size(), 24u);
    // y == H x exactly, so the ML cost of the truth is 0.
    EXPECT_NEAR(inst.ml_cost(inst.tx_symbols), 0.0, 1e-18);
    EXPECT_NEAR(inst.ml_cost_bits(inst.tx_bits), 0.0, 1e-18);
}

TEST(Mimo, MlCostPositiveForWrongCandidate) {
    hcq::util::rng rng(13);
    const auto inst = wl::noiseless_paper_instance(rng, 4, modulation::qpsk);
    auto bits = inst.tx_bits;
    bits[0] ^= 1U;
    EXPECT_GT(inst.ml_cost_bits(bits), 1e-6);
}

TEST(Mimo, SynthesizeValidation) {
    hcq::util::rng rng(14);
    wl::mimo_config config;
    config.num_users = 4;
    config.num_antennas = 2;  // fewer antennas than users
    EXPECT_THROW((void)wl::synthesize(rng, config), std::invalid_argument);
    config.num_users = 0;
    EXPECT_THROW((void)wl::synthesize(rng, config), std::invalid_argument);
}

TEST(Mimo, NoisyInstanceHasNonzeroResidual) {
    hcq::util::rng rng(15);
    wl::mimo_config config;
    config.mod = modulation::qpsk;
    config.num_users = 4;
    config.num_antennas = 6;
    config.channel = wl::channel_model::rayleigh;
    config.noise_variance = 1.0;
    const auto inst = wl::synthesize(rng, config);
    EXPECT_GT(inst.ml_cost(inst.tx_symbols), 0.0);
    EXPECT_EQ(inst.num_antennas, 6u);
}

TEST(Mimo, UsersForVariables) {
    EXPECT_EQ(wl::users_for_variables(modulation::bpsk, 36), 36u);
    EXPECT_EQ(wl::users_for_variables(modulation::qpsk, 36), 18u);
    EXPECT_EQ(wl::users_for_variables(modulation::qam16, 36), 9u);
    EXPECT_EQ(wl::users_for_variables(modulation::qam64, 36), 6u);
    EXPECT_THROW((void)wl::users_for_variables(modulation::qam16, 34), std::invalid_argument);
    EXPECT_THROW((void)wl::users_for_variables(modulation::qam16, 0), std::invalid_argument);
}

TEST(Mimo, DeterministicGivenSeed) {
    hcq::util::rng a(99);
    hcq::util::rng b(99);
    const auto i1 = wl::noiseless_paper_instance(a, 3, modulation::qpsk);
    const auto i2 = wl::noiseless_paper_instance(b, 3, modulation::qpsk);
    EXPECT_EQ(i1.tx_bits, i2.tx_bits);
    EXPECT_NEAR((i1.h - i2.h).norm_fro(), 0.0, 0.0);
}

/// Same shape and the same bytes: bit-for-bit equality, -0.0 and NaN included.
/// An empty buffer's data() may be null, which memcmp must not see.
bool same_bits(const hcq::linalg::cxd* a, const hcq::linalg::cxd* b, std::size_t n) {
    return n == 0 || std::memcmp(a, b, n * sizeof(*a)) == 0;
}
bool same_bits(const hcq::linalg::cmat& a, const hcq::linalg::cmat& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           same_bits(a.data(), b.data(), a.rows() * a.cols());
}
bool same_bits(const hcq::linalg::cvec& a, const hcq::linalg::cvec& b) {
    return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

TEST(Mimo, GivenChannelSynthesisEqualsProcessSynthesis) {
    // A correlated process's H(t) draws nothing from the use's stream, so a
    // use synthesised through a true channel H(t) already held (the coded
    // link's retransmissions) is the use synthesize_at_coded_into gives at
    // t: every field, and the stream's next draws.  `got` is reused across
    // cases, as a link worker's instance is.
    wl::mimo_config config;
    config.mod = modulation::qam16;
    config.num_users = 4;
    config.num_antennas = 4;
    config.noise_variance = wl::noise_variance_for_snr(config.mod, 4, 16.0);
    const std::vector<std::uint8_t> coded_bits{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1};
    wl::mimo_instance source;
    wl::mimo_instance got;
    std::uint64_t seed = 0;
    for (const char* kind : {"jakes", "watterson:taps=2"}) {
        const auto process =
            wl::make_channel_process(wl::channel_spec::parse(kind), 4, 4, hcq::util::rng(3));
        ASSERT_TRUE(process->correlated());
        for (const double est_err : {0.0, 0.02}) {
            for (const bool coded : {false, true}) {
                const std::span<const std::uint8_t> bits =
                    coded ? std::span<const std::uint8_t>(coded_bits)
                          : std::span<const std::uint8_t>();
                for (const double t : {0.0, 1.0, 17.0, 4096.0, 1e6 + 3.0}) {
                    SCOPED_TRACE(std::string(kind) + " est_err=" + std::to_string(est_err) +
                                 (coded ? " coded" : " uncoded") + " t=" + std::to_string(t));
                    // The source use: another stream's instance at t.
                    hcq::util::rng source_rng(1000 + seed);
                    wl::synthesize_at_coded_into(source_rng, config, *process, t, est_err, {},
                                                 source);
                    hcq::util::rng want_rng(++seed);
                    hcq::util::rng got_rng = want_rng;
                    wl::mimo_instance want;
                    wl::synthesize_at_coded_into(want_rng, config, *process, t, est_err, bits,
                                                 want);
                    wl::synthesize_given_coded_into(got_rng, config, source.true_channel(),
                                                    est_err, bits, got);
                    EXPECT_TRUE(same_bits(got.h, want.h));
                    EXPECT_TRUE(same_bits(got.h_true, want.h_true));
                    EXPECT_EQ(got.h_true.empty(), est_err == 0.0);
                    EXPECT_EQ(got.tx_bits, want.tx_bits);
                    EXPECT_TRUE(same_bits(got.tx_symbols, want.tx_symbols));
                    EXPECT_TRUE(same_bits(got.y, want.y));
                    EXPECT_EQ(got.noise_variance, want.noise_variance);
                    EXPECT_EQ(got.csi_error_variance, want.csi_error_variance);
                    EXPECT_EQ(got_rng(), want_rng());
                    EXPECT_EQ(got_rng(), want_rng());
                }
            }
        }
    }
    hcq::util::rng rng(5);
    EXPECT_THROW(wl::synthesize_given_coded_into(rng, config, hcq::linalg::cmat(4, 3), 0.0, {},
                                                 got),
                 std::invalid_argument);
}

TEST(ChannelSpec, OnlyTheTimeCorrelatedKindsAreCorrelated) {
    // The coded link reuses H(t) across a frame's attempts only for
    // correlated processes; the i.i.d. kinds draw H from the use's stream.
    const auto correlated = [](const char* kind) {
        return wl::make_channel_process(wl::channel_spec::parse(kind), 2, 2, hcq::util::rng(1))
            ->correlated();
    };
    EXPECT_FALSE(correlated("rayleigh"));
    EXPECT_FALSE(correlated("random-phase"));
    EXPECT_TRUE(correlated("jakes"));
    EXPECT_TRUE(correlated("watterson"));
}

TEST(ChannelSpec, ProcessIsBuiltFromTheSpecAsGiven) {
    // A spec's values reach the frozen taps unrounded: use_rate_hz = 1000/3
    // is not its 15-digit reprint, while the 17-digit text of 1000/3 is.
    auto exact = wl::channel_spec::parse("jakes:doppler_hz=5");
    exact.use_rate_hz = 1000.0 / 3;
    const auto reprint = wl::channel_spec::parse("jakes:doppler_hz=5,use_rate_hz=333.333333333333");
    const auto full = wl::channel_spec::parse("jakes:doppler_hz=5,use_rate_hz=333.33333333333331");
    const auto h_at = [](const wl::channel_spec& spec) {
        hcq::util::rng use_rng(1);
        return wl::make_channel_process(spec, 2, 2, hcq::util::rng(9))->at(1e6, use_rng);
    };
    const auto h_exact = h_at(exact);
    EXPECT_GT((h_exact - h_at(reprint)).norm_fro(), 0.0);
    EXPECT_EQ((h_exact - h_at(full)).norm_fro(), 0.0);
}

}  // namespace
