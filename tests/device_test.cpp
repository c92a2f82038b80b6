// Tests for the annealer emulator and its temperature maps — the hardware
// substitution's contract (see src/core/device.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "classical/metropolis.h"
#include "core/device.h"
#include "core/schedule.h"
#include "core/temperature.h"
#include "paths/registry.h"
#include "qubo/brute_force.h"
#include "qubo/generator.h"
#include "qubo/ising.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

namespace an = hcq::anneal;
namespace q = hcq::qubo;

TEST(TemperatureMap, VanishesAtSOne) {
    for (const auto kind : {an::temperature_map_kind::rational,
                            an::temperature_map_kind::linear,
                            an::temperature_map_kind::exponential}) {
        const an::temperature_map map(kind);
        EXPECT_NEAR(map.fluctuation(1.0), 0.0, 1e-12) << an::to_string(kind);
    }
}

TEST(TemperatureMap, MonotoneNonIncreasing) {
    for (const auto kind : {an::temperature_map_kind::rational,
                            an::temperature_map_kind::linear,
                            an::temperature_map_kind::exponential}) {
        const an::temperature_map map(kind);
        double prev = map.fluctuation(0.0);
        for (double s = 0.05; s <= 1.0; s += 0.05) {
            const double cur = map.fluctuation(s);
            EXPECT_LE(cur, prev + 1e-12) << an::to_string(kind) << " at s=" << s;
            prev = cur;
        }
    }
}

TEST(TemperatureMap, RationalDivergesTowardsSZero) {
    const an::temperature_map map(an::temperature_map_kind::rational, 3.0, 0.05);
    EXPECT_GT(map.fluctuation(0.0), 10.0);
    EXPECT_NEAR(map.fluctuation(0.5), 1.0, 1e-12);
}

TEST(TemperatureMap, ClampsInput) {
    const an::temperature_map map;
    EXPECT_DOUBLE_EQ(map.fluctuation(-1.0), map.fluctuation(0.0));
    EXPECT_DOUBLE_EQ(map.fluctuation(2.0), map.fluctuation(1.0));
}

TEST(TemperatureMap, Validation) {
    EXPECT_THROW(an::temperature_map(an::temperature_map_kind::rational, -1.0),
                 std::invalid_argument);
    EXPECT_THROW(an::temperature_map(an::temperature_map_kind::rational, 1.0, 0.0),
                 std::invalid_argument);
    EXPECT_STREQ(an::to_string(an::temperature_map_kind::linear), "linear");
}

TEST(Device, ConfigValidation) {
    an::annealer_config config;
    config.sweeps_per_us = 0.0;
    EXPECT_THROW(an::annealer_emulator{config}, std::invalid_argument);
    config = {};
    config.temperature_scale = -1.0;
    EXPECT_THROW(an::annealer_emulator{config}, std::invalid_argument);
    config = {};
    config.freeze_fraction = -1.0;
    EXPECT_THROW(an::annealer_emulator{config}, std::invalid_argument);
}

TEST(Device, SweepsScaleWithDuration) {
    an::annealer_config config;
    config.sweeps_per_us = 10.0;
    const an::annealer_emulator device(config);
    EXPECT_EQ(device.sweeps_for(an::anneal_schedule::forward_plain(2.0)), 20u);
    EXPECT_EQ(device.sweeps_for(an::anneal_schedule::forward_plain(0.01)), 1u);  // minimum 1
}

TEST(Device, ProgramRunLengthEncodesThePause) {
    // The table holds f(s) per sweep, run-length encoded: the sweeps of a
    // pause share one entry, so gsra:pause_us=1000 (24,000 pause sweeps at
    // the default 24 sweeps/us) programs no more entries than pause_us=1
    // plus the pause's boundary sweeps.  Every sweep is counted once.
    const an::annealer_emulator device;
    const auto short_pause = an::anneal_schedule::reverse(0.29, 1.0);
    const auto long_pause = an::anneal_schedule::reverse(0.29, 1000.0);
    const an::anneal_program a = device.program(short_pause);
    const an::anneal_program b = device.program(long_pause);
    EXPECT_LE(b.runs.size(), a.runs.size() + 2);
    for (const auto& [schedule, program] : {std::pair{&short_pause, &a}, std::pair{&long_pause, &b}}) {
        std::size_t sweeps = 0;
        for (const auto& run : program->runs) sweeps += run.sweeps;
        EXPECT_EQ(sweeps, device.sweeps_for(*schedule));
        EXPECT_TRUE(program->starts_classical);
    }
    const auto pause = std::max_element(b.runs.begin(), b.runs.end(),
                                        [](const auto& x, const auto& y) { return x.sweeps < y.sweeps; });
    EXPECT_GE(pause->sweeps, 24000U);
    EXPECT_EQ(pause->fluctuation, device.config().map.fluctuation(0.29));
}

TEST(Device, ProgramMatchesPerSweepReference) {
    // program() counts the sweeps of a constant-s segment in one step; the
    // table must equal the one built sweep by sweep, run for run.
    const auto per_sweep = [](const an::annealer_emulator& device,
                              const an::anneal_schedule& schedule) {
        std::vector<an::anneal_program::run> runs;
        const std::size_t sweeps = device.sweeps_for(schedule);
        const double dt = schedule.duration_us() / static_cast<double>(sweeps);
        for (std::size_t k = 0; k < sweeps; ++k) {
            const double t_mid = (static_cast<double>(k) + 0.5) * dt;
            const double f = device.config().map.fluctuation(schedule.s_at(t_mid));
            if (!runs.empty() && runs.back().fluctuation == f) {
                ++runs.back().sweeps;
            } else {
                runs.push_back({f, 1});
            }
        }
        return runs;
    };
    an::annealer_config coarse;
    coarse.sweeps_per_us = 7.3;
    std::size_t schedules = 0;
    for (const an::annealer_emulator& device :
         {an::annealer_emulator{}, an::annealer_emulator{coarse}}) {
        for (const auto p : {an::protocol::forward, an::protocol::reverse,
                             an::protocol::forward_reverse}) {
            for (const double s_p : {0.2, 0.29, 0.45, 0.6, 0.8, 0.95, 0.99}) {
                for (const double t_p : {0.0, 0.25, 1.0, 7.5, 123.4, 12345.678}) {
                    const auto schedule =
                        an::anneal_schedule::make(p, s_p, t_p, 1.0, (1.0 + s_p) / 2);
                    const auto expected = per_sweep(device, schedule);
                    const auto actual = device.program(schedule).runs;
                    ASSERT_EQ(actual.size(), expected.size())
                        << an::to_string(p) << " s_p=" << s_p << " t_p=" << t_p;
                    for (std::size_t i = 0; i < expected.size(); ++i) {
                        EXPECT_EQ(actual[i].fluctuation, expected[i].fluctuation);
                        EXPECT_EQ(actual[i].sweeps, expected[i].sweeps);
                    }
                    ++schedules;
                }
            }
        }
    }
    EXPECT_EQ(schedules, 252U);

    // A long pause programs in one step rather than one per sweep.
    const hcq::util::timer clock;
    (void)hcq::paths::registry::make("gsra:reads=1,pause_us=1e7");
    EXPECT_LT(clock.elapsed_us(), 1e6);
    const an::annealer_emulator device;
    const auto long_pause = an::anneal_schedule::reverse(0.29, 1e7);
    std::size_t sweeps = 0;
    for (const auto& run : device.program(long_pause).runs) sweeps += run.sweeps;
    EXPECT_EQ(sweeps, device.sweeps_for(long_pause));
}

TEST(Device, ReverseScheduleRequiresInitialState) {
    hcq::util::rng rng(1);
    const auto m = q::random_qubo(rng, 8, 1.0, -1.0, 1.0);
    const an::annealer_emulator device;
    const auto ra = an::anneal_schedule::reverse(0.5, 1.0);
    EXPECT_THROW((void)device.anneal_once(m, ra, rng), std::invalid_argument);
    EXPECT_THROW((void)device.anneal_once(m, ra, rng, q::bit_vector(3, 0)),
                 std::invalid_argument);
    // With a state it runs fine.
    const auto bits = device.anneal_once(m, ra, rng, q::bit_vector(8, 0));
    EXPECT_EQ(bits.size(), 8u);
}

TEST(Device, FrozenScheduleIsIdentityOnInitialState) {
    hcq::util::rng rng(2);
    const auto m = q::random_qubo(rng, 10, 1.0, -1.0, 1.0);
    const an::annealer_emulator device;
    // Hold at s = 1 throughout: zero fluctuation... but note Metropolis at
    // T=0 still performs strictly-downhill moves; a true frozen register
    // requires the initial state to be a local minimum.  Use one.
    auto bits = rng.bits(10);
    hcq::solvers::metropolis_engine descent(m, bits);
    for (int i = 0; i < 50; ++i) descent.sweep(0.0, rng);
    const auto local_min = descent.state();
    const an::anneal_schedule hold({{0.0, 1.0}, {2.0, 1.0}}, "hold");
    const auto out = device.anneal_once(m, hold, rng, local_min);
    EXPECT_EQ(out, local_min);
}

TEST(Device, ForwardStartIsRandomised) {
    // At s ~ 0 the fluctuation is huge: an immediately-measured forward
    // anneal behaves like a random bitstring source.  Run many very hot,
    // very short anneals and check the marginal of each bit is ~1/2.
    hcq::util::rng rng(3);
    const auto m = q::random_qubo(rng, 6, 1.0, -0.2, 0.2);
    an::annealer_config config;
    config.sweeps_per_us = 4.0;
    const an::annealer_emulator device(config);
    const an::anneal_schedule hot({{0.0, 0.0}, {0.25, 0.05}}, "hot");
    std::vector<int> ones(6, 0);
    const int reads = 400;
    for (int r = 0; r < reads; ++r) {
        const auto bits = device.anneal_once(m, hot, rng);
        for (std::size_t i = 0; i < 6; ++i) ones[i] += bits[i];
    }
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_NEAR(static_cast<double>(ones[i]) / reads, 0.5, 0.15);
    }
}

TEST(Device, ForwardAnnealingSolvesEasyInstance) {
    const auto m = q::to_qubo(q::ferromagnetic_chain(10));
    const auto exact = q::brute_force_minimize(m);
    hcq::util::rng rng(4);
    const an::annealer_emulator device;
    const auto samples =
        device.sample(m, an::anneal_schedule::forward_plain(4.0), 50, rng);
    EXPECT_GT(samples.success_probability(exact.best_energy), 0.5);
}

TEST(Device, ReverseFromOptimumAtHighSpStaysOptimal) {
    hcq::util::rng rng(5);
    const auto m = q::random_qubo(rng, 12, 1.0, -1.0, 1.0);
    const auto exact = q::brute_force_minimize(m);
    const an::annealer_emulator device;
    // s_p = 0.95: barely any fluctuation — a refined local search around the
    // ground state must keep finding it.
    const auto samples = device.sample(m, an::anneal_schedule::reverse(0.95, 1.0), 40, rng,
                                       exact.best_bits);
    EXPECT_GT(samples.success_probability(exact.best_energy), 0.9);
}

TEST(Device, ReverseAtVeryLowSpWipesOutInitialState) {
    // s_p near 0 wipes the initial-state information (paper Section 4.3):
    // success from the ground state should drop markedly vs high s_p.
    hcq::util::rng rng(6);
    const auto m = q::random_qubo(rng, 14, 1.0, -1.0, 1.0);
    const auto exact = q::brute_force_minimize(m);
    const an::annealer_emulator device;
    const auto high =
        device.sample(m, an::anneal_schedule::reverse(0.9, 1.0), 60, rng, exact.best_bits);
    const auto low =
        device.sample(m, an::anneal_schedule::reverse(0.05, 1.0), 60, rng, exact.best_bits);
    EXPECT_GE(high.success_probability(exact.best_energy),
              low.success_probability(exact.best_energy));
}

TEST(Device, SampleCountAndDeterminism) {
    hcq::util::rng rng_a(7);
    hcq::util::rng rng_b(7);
    const auto m = q::random_qubo(rng_a, 8, 1.0, -1.0, 1.0);
    const auto m2 = q::random_qubo(rng_b, 8, 1.0, -1.0, 1.0);
    const an::annealer_emulator device;
    const auto fa = an::anneal_schedule::forward_plain(1.0);
    const auto s1 = device.sample(m, fa, 25, rng_a);
    const auto s2 = device.sample(m2, fa, 25, rng_b);
    ASSERT_EQ(s1.size(), 25u);
    ASSERT_EQ(s2.size(), 25u);
    for (std::size_t i = 0; i < 25; ++i) {
        EXPECT_EQ(s1[i].bits, s2[i].bits);  // same seed, same stream
    }
    EXPECT_THROW((void)device.sample(m, fa, 0, rng_a), std::invalid_argument);
}

TEST(Device, RepeatedSampleCallsDiffer) {
    hcq::util::rng rng(8);
    const auto m = q::random_qubo(rng, 10, 1.0, -1.0, 1.0);
    const an::annealer_emulator device;
    // End the schedule while still hot so final states stay spread out (a
    // full anneal may legitimately funnel every read into one basin).
    const an::anneal_schedule hot({{0.0, 0.0}, {1.0, 0.15}}, "hot-end");
    const auto s1 = device.sample(m, hot, 10, rng);
    const auto s2 = device.sample(m, hot, 10, rng);
    int differing = 0;
    for (std::size_t i = 0; i < 10; ++i) {
        if (s1[i].bits != s2[i].bits) ++differing;
    }
    EXPECT_GT(differing, 0);  // the salt advances the caller's generator
}

TEST(Device, SampleEnergiesMatchModel) {
    hcq::util::rng rng(9);
    const auto m = q::random_qubo(rng, 9, 1.0, -1.0, 1.0);
    const an::annealer_emulator device;
    const auto samples = device.sample(m, an::anneal_schedule::forward_plain(1.0), 15, rng);
    for (const auto& s : samples.all()) {
        EXPECT_NEAR(s.energy, m.energy(s.bits), 1e-10);
    }
}

TEST(Device, BestOnlySampleMatchesBestOfTheSampleSet) {
    // sample_best_into keeps only the winning read: the same bits and energy
    // as sample(...).best(), after the same rng draws.  Inputs: random
    // QUBOs, field-free ferromagnetic chains (all-zeros and all-ones are both
    // ground states) and all-zero models (every read ties).
    std::vector<q::qubo_model> models;
    hcq::util::rng make(31);
    for (std::size_t i = 0; i < 30; ++i) {
        models.push_back(q::random_qubo(make, 3 + i % 10, 0.7, -1.0, 1.0));
    }
    for (std::size_t n = 2; n <= 7; ++n) {
        models.push_back(q::to_qubo(q::ferromagnetic_chain(n, -1.0, 0.0)));
    }
    for (std::size_t n = 1; n <= 4; ++n) models.emplace_back(n);

    const an::annealer_emulator device;
    const auto forward = an::anneal_schedule::forward(1.0, 0.45, 1.0);
    const auto reverse = an::anneal_schedule::reverse(0.45, 1.0);
    hcq::solvers::solve_scratch scratch;
    for (std::size_t i = 0; i < models.size(); ++i) {
        const q::qubo_model& m = models[i];
        const q::bit_vector initial = make.bits(m.num_variables());
        for (const bool is_reverse : {false, true}) {
            SCOPED_TRACE("input " + std::to_string(i) + (is_reverse ? " reverse" : " forward"));
            const an::anneal_schedule& schedule = is_reverse ? reverse : forward;
            const an::anneal_program program = device.program(schedule);
            hcq::util::rng want_rng(hcq::util::rng(5).derive(i)());
            hcq::util::rng got_rng = want_rng;
            const auto samples =
                device.sample(m, schedule, 6, want_rng,
                              is_reverse ? std::optional(initial) : std::nullopt);
            q::bit_vector best;
            const double energy = device.sample_best_into(
                m, program, 6, got_rng, is_reverse ? &initial : nullptr, scratch, best);
            EXPECT_EQ(best, samples.best().bits);
            EXPECT_EQ(energy, samples.best().energy);
            EXPECT_EQ(got_rng(), want_rng());
        }
    }
}

TEST(Device, ZeroReadsErrorNamesTheEntryCalled) {
    hcq::util::rng rng(32);
    const auto m = q::random_qubo(rng, 6, 1.0, -1.0, 1.0);
    const an::annealer_emulator device;
    const auto fa = an::anneal_schedule::forward_plain(1.0);
    hcq::solvers::solve_scratch scratch;
    q::bit_vector best;
    const auto message = [](const auto& call) -> std::string {
        try {
            call();
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "no throw";
    };
    EXPECT_EQ(message([&] { (void)device.sample(m, fa, 0, rng); }),
              "annealer_emulator::sample: zero reads");
    EXPECT_EQ(message([&] {
                  (void)device.sample_best_into(m, device.program(fa), 0, rng, nullptr, scratch,
                                                best);
              }),
              "annealer_emulator::sample_best_into: zero reads");
}

/// "0101..." for a bit vector, so a pinned read prints readably on failure.
std::string bit_string(const q::bit_vector& bits) {
    std::string out;
    for (const auto b : bits) out += b != 0 ? '1' : '0';
    return out;
}

TEST(Device, NoisyReadsMatchRecordedValues) {
    // Control noise draws normals before the sweeps and read-out flips draw
    // uniforms after them, all from the read's stream.  Three RA and three
    // FA reads on one 16-variable QUBO, and a four-read RA sample(), pin each
    // read's bits and the next draw of the stream; the values were recorded
    // before the sweep drew its uniforms in chunks.
    hcq::util::rng make(61);
    const auto m = q::random_qubo(make, 16, 0.7, -1.0, 1.0);
    const q::bit_vector initial = make.bits(16);
    an::annealer_config config;
    config.control_noise = 0.05;
    config.readout_flip_probability = 0.02;
    const an::annealer_emulator device(config);
    hcq::solvers::solve_scratch scratch;
    const auto three_reads = [&](const an::anneal_schedule& schedule, hcq::util::rng& rng,
                                 const q::bit_vector* start) {
        const an::anneal_program program = device.program(schedule);
        std::vector<std::string> reads(3);
        q::bit_vector out;
        for (auto& read : reads) {
            device.anneal_once_into(m, program, rng, start, scratch, out);
            read = bit_string(out);
        }
        return reads;
    };

    hcq::util::rng ra_rng(62);
    EXPECT_EQ(three_reads(an::anneal_schedule::reverse(0.45, 1.0), ra_rng, &initial),
              (std::vector<std::string>{"1111111100100110", "1111111101100111",
                                        "1111111101100111"}));
    EXPECT_EQ(ra_rng(), 6151366893325214478ULL);

    hcq::util::rng fa_rng(63);
    EXPECT_EQ(three_reads(an::anneal_schedule::forward(1.0, 0.41, 1.0), fa_rng, nullptr),
              (std::vector<std::string>{"1111111101100111", "1011111101100111",
                                        "1011111101100111"}));
    EXPECT_EQ(fa_rng(), 13050399393548317821ULL);

    // sample() runs its reads through the loop that shares a noise-free
    // start; with control noise every read must still perturb its own model.
    hcq::util::rng set_rng(64);
    const auto set = device.sample(m, an::anneal_schedule::reverse(0.45, 1.0), 4, set_rng, initial);
    std::vector<std::string> set_reads;
    set_reads.reserve(set.size());
    for (const auto& read : set.all()) set_reads.push_back(bit_string(read.bits));
    EXPECT_EQ(set_reads, (std::vector<std::string>{"1011111101100111", "1111111101100111",
                                                   "1011111101100111", "1111111101100111"}));
    EXPECT_EQ(set_rng(), 17105026330190711563ULL);
}

}  // namespace
