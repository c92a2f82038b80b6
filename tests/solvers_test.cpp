// Tests for the classical solver suite: sample sets, greedy search (the
// paper's GS), the Metropolis engine, SA, tabu, parallel tempering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "classical/greedy.h"
#include "classical/metropolis.h"
#include "classical/parallel_tempering.h"
#include "classical/sample_set.h"
#include "classical/simulated_annealing.h"
#include "classical/solver.h"
#include "classical/tabu.h"
#include "qubo/brute_force.h"
#include "qubo/generator.h"
#include "qubo/ising.h"
#include "util/rng.h"

namespace {

namespace q = hcq::qubo;
namespace sv = hcq::solvers;

/// One best-only solve on fresh scratch, as a (bits, energy) sample.
sv::sample solve_best(const sv::solver& solver, const q::qubo_model& m, hcq::util::rng& rng) {
    sv::solve_scratch scratch;
    sv::sample out;
    out.energy = solver.solve_best_into(m, rng, scratch, out.bits);
    return out;
}

TEST(SampleSet, BestAndMean) {
    sv::sample_set s;
    s.add({0, 0}, 3.0);
    s.add({1, 0}, -1.0);
    s.add({0, 1}, 2.0);
    EXPECT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s.best().energy, -1.0);
}

TEST(SampleSet, EmptyThrows) {
    const sv::sample_set s;
    EXPECT_TRUE(s.empty());
    EXPECT_THROW((void)s.best(), std::logic_error);
    EXPECT_DOUBLE_EQ(s.success_probability(0.0), 0.0);
}

TEST(SampleSet, SuccessCounting) {
    sv::sample_set s;
    s.add({0}, -5.0);
    s.add({1}, -5.0 + 1e-9);  // within tolerance
    s.add({0}, -4.0);
    EXPECT_EQ(s.count_at_or_below(-5.0, 1e-6), 2u);
    EXPECT_NEAR(s.success_probability(-5.0, 1e-6), 2.0 / 3.0, 1e-12);
}

TEST(SampleSet, MergeAndEnergies) {
    sv::sample_set a;
    a.add({0}, 1.0);
    a.add({1}, 2.0);
    EXPECT_EQ(a.size(), 2u);
    EXPECT_DOUBLE_EQ(a[0].energy, 1.0);
    EXPECT_DOUBLE_EQ(a[1].energy, 2.0);
}

TEST(Initializers, RandomProducesValidState) {
    hcq::util::rng rng(1);
    const auto m = q::random_qubo(rng, 10, 1.0, -1.0, 1.0);
    const auto init = sv::random_initializer().initialize(m, rng);
    EXPECT_EQ(init.bits.size(), 10u);
    EXPECT_NEAR(init.energy, m.energy(init.bits), 1e-12);
    EXPECT_EQ(sv::random_initializer().name(), "random");
}

TEST(Initializers, FixedReturnsExactBits) {
    hcq::util::rng rng(2);
    const auto m = q::random_qubo(rng, 4, 1.0, -1.0, 1.0);
    const q::bit_vector bits{1, 0, 1, 1};
    const sv::fixed_initializer init(bits, "oracle");
    const auto state = init.initialize(m, rng);
    EXPECT_EQ(state.bits, bits);
    EXPECT_EQ(init.name(), "oracle");
    const sv::fixed_initializer wrong(q::bit_vector{1, 0});
    EXPECT_THROW((void)wrong.initialize(m, rng), std::invalid_argument);
}

TEST(Greedy, DeterministicAcrossCalls) {
    hcq::util::rng rng(3);
    const auto m = q::random_qubo(rng, 20, 1.0, -1.0, 1.0);
    sv::greedy_search gs;
    auto rng1 = rng.derive(1);
    auto rng2 = rng.derive(2);
    const auto a = gs.initialize(m, rng1);
    const auto b = gs.initialize(m, rng2);
    EXPECT_EQ(a.bits, b.bits);  // rng is unused: GS is deterministic
    EXPECT_DOUBLE_EQ(a.energy, b.energy);
}

TEST(Greedy, SolvesFerromagneticChainExactly) {
    const auto m = q::to_qubo(q::ferromagnetic_chain(12));
    hcq::util::rng rng(4);
    const auto init = sv::greedy_search().initialize(m, rng);
    const q::bit_vector all_ones(12, 1);
    EXPECT_EQ(init.bits, all_ones);
}

TEST(Greedy, BeatsRandomOnAverage) {
    hcq::util::rng rng(5);
    double greedy_total = 0.0;
    double random_total = 0.0;
    const int trials = 25;
    for (int t = 0; t < trials; ++t) {
        const auto m = q::random_qubo(rng, 24, 1.0, -1.0, 1.0);
        auto grng = rng.derive(t);
        greedy_total += sv::greedy_search().initialize(m, grng).energy;
        for (int r = 0; r < 5; ++r) {
            random_total += m.energy(rng.bits(24)) / 5.0;
        }
    }
    EXPECT_LT(greedy_total, random_total);
}

TEST(Greedy, EnergyMatchesReportedBits) {
    hcq::util::rng rng(6);
    const auto m = q::random_qubo(rng, 15, 0.8, -2.0, 2.0);
    const auto init = sv::greedy_search().initialize(m, rng);
    EXPECT_NEAR(init.energy, m.energy(init.bits), 1e-12);
    EXPECT_GE(init.elapsed_us, 0.0);
}

TEST(Greedy, BothRankOrdersProduceValidStates) {
    hcq::util::rng rng(7);
    const auto m = q::random_qubo(rng, 12, 1.0, -1.0, 1.0);
    const auto a = sv::greedy_search(sv::rank_order::most_decided_first).initialize(m, rng);
    const auto b = sv::greedy_search(sv::rank_order::least_decided_first).initialize(m, rng);
    EXPECT_EQ(a.bits.size(), 12u);
    EXPECT_EQ(b.bits.size(), 12u);
    // The default is the paper's literal "ascending magnitude" order.
    EXPECT_EQ(sv::greedy_search().order(), sv::rank_order::least_decided_first);
}

TEST(Greedy, LocalMinimumUnderSingleFlips) {
    // The greedy construction should at least not leave a trivially
    // improvable first-ranked bit; check it is 1-opt w.r.t. its own order by
    // verifying no single flip of the *last assigned* variable helps.
    hcq::util::rng rng(8);
    const auto m = q::random_qubo(rng, 10, 1.0, -1.0, 1.0);
    const auto init = sv::greedy_search().initialize(m, rng);
    // A full 1-opt guarantee does not hold for greedy; verify energy is
    // finite and consistent instead, plus at most n improving flips exist.
    std::size_t improving = 0;
    for (std::size_t i = 0; i < 10; ++i) {
        if (m.flip_delta(i, init.bits) < -1e-12) ++improving;
    }
    EXPECT_LE(improving, 5u);  // should be a decent local state
}

TEST(Metropolis, TracksEnergyExactly) {
    hcq::util::rng rng(9);
    const auto m = q::random_qubo(rng, 16, 0.9, -1.0, 1.0);
    sv::metropolis_engine engine(m, rng.bits(16));
    for (int sweep = 0; sweep < 50; ++sweep) {
        engine.sweep(0.7, rng);
        EXPECT_NEAR(engine.energy(), m.energy(engine.state()), 1e-8);
    }
}

TEST(Metropolis, ZeroTemperatureNeverIncreasesEnergy) {
    hcq::util::rng rng(10);
    const auto m = q::random_qubo(rng, 20, 1.0, -1.0, 1.0);
    sv::metropolis_engine engine(m, rng.bits(20));
    double prev = engine.energy();
    for (int sweep = 0; sweep < 30; ++sweep) {
        engine.sweep(0.0, rng);
        EXPECT_LE(engine.energy(), prev + 1e-12);
        prev = engine.energy();
    }
}

TEST(Metropolis, ZeroTemperatureReachesLocalMinimum) {
    hcq::util::rng rng(11);
    const auto m = q::random_qubo(rng, 15, 1.0, -1.0, 1.0);
    sv::metropolis_engine engine(m, rng.bits(15));
    for (int sweep = 0; sweep < 100; ++sweep) engine.sweep(0.0, rng);
    for (std::size_t i = 0; i < 15; ++i) {
        EXPECT_GE(m.flip_delta(i, engine.state()), -1e-12);
    }
}

TEST(Metropolis, ForceFlipAndFieldsConsistent) {
    hcq::util::rng rng(12);
    const auto m = q::random_qubo(rng, 8, 1.0, -1.0, 1.0);
    sv::metropolis_engine engine(m, rng.bits(8));
    const auto before = engine.state();
    engine.force_flip(3);
    EXPECT_NE(engine.state()[3], before[3]);
    EXPECT_NEAR(engine.energy(), m.energy(engine.state()), 1e-10);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_NEAR(engine.field(i), m.local_field(i, engine.state()), 1e-10);
    }
}

TEST(Metropolis, SetStateRebuilds) {
    hcq::util::rng rng(13);
    const auto m = q::random_qubo(rng, 6, 1.0, -1.0, 1.0);
    sv::metropolis_engine engine(m, q::bit_vector(6, 0));
    const auto bits = rng.bits(6);
    engine.set_state(bits);
    EXPECT_EQ(engine.state(), bits);
    EXPECT_NEAR(engine.energy(), m.energy(bits), 1e-12);
    EXPECT_THROW(engine.set_state(q::bit_vector(3, 0)), std::invalid_argument);
    EXPECT_THROW(sv::metropolis_engine(m, q::bit_vector(2, 0)), std::invalid_argument);
}

TEST(Metropolis, HighTemperatureAcceptsFreely) {
    hcq::util::rng rng(14);
    const auto m = q::random_qubo(rng, 10, 1.0, -0.1, 0.1);
    sv::metropolis_engine engine(m, rng.bits(10));
    const std::size_t accepted = engine.sweep(1e6, rng);
    EXPECT_GT(accepted, 5u);  // nearly everything accepted at huge T
    EXPECT_THROW((void)engine.try_flip(0, -1.0, rng), std::invalid_argument);
}

TEST(SimulatedAnnealing, FindsOptimumOnSmallInstance) {
    hcq::util::rng rng(15);
    const auto m = q::random_qubo(rng, 12, 1.0, -1.0, 1.0);
    const auto exact = q::brute_force_minimize(m);
    const sv::simulated_annealing sa({.num_reads = 20, .num_sweeps = 200});
    auto srng = rng.derive(1);
    EXPECT_NEAR(solve_best(sa, m, srng).energy, exact.best_energy, 1e-9);
}

TEST(SimulatedAnnealing, ConfigValidation) {
    EXPECT_THROW(sv::simulated_annealing({.num_reads = 0}), std::invalid_argument);
    EXPECT_THROW(sv::simulated_annealing({.num_sweeps = 0}), std::invalid_argument);
    EXPECT_THROW(sv::simulated_annealing({.hot_fraction = -1.0}), std::invalid_argument);
    EXPECT_THROW(sv::simulated_annealing(
                     {.hot_fraction = 0.1, .cold_fraction = 0.5}),
                 std::invalid_argument);
    EXPECT_EQ(sv::simulated_annealing().name(), "SA");
}

TEST(Tabu, FindsOptimumOnFerromagneticChain) {
    const auto m = q::to_qubo(q::ferromagnetic_chain(10));
    hcq::util::rng rng(16);
    const auto best = solve_best(sv::tabu_search(), m, rng);
    const auto exact = q::brute_force_minimize(m);
    EXPECT_NEAR(best.energy, exact.best_energy, 1e-9);
}

TEST(Tabu, FindsOptimumOnRandomSmallInstances) {
    hcq::util::rng rng(17);
    int hits = 0;
    for (int trial = 0; trial < 10; ++trial) {
        const auto m = q::random_qubo(rng, 10, 1.0, -1.0, 1.0);
        const auto exact = q::brute_force_minimize(m);
        auto trng = rng.derive(trial);
        if (solve_best(sv::tabu_search(), m, trng).energy <= exact.best_energy + 1e-9) ++hits;
    }
    EXPECT_GE(hits, 8);  // tabu should nearly always crack 10-variable QUBOs
}

TEST(Tabu, InitializerInterface) {
    hcq::util::rng rng(18);
    const auto m = q::random_qubo(rng, 8, 1.0, -1.0, 1.0);
    const sv::tabu_search tabu;
    const auto init = tabu.initialize(m, rng);
    EXPECT_EQ(init.bits.size(), 8u);
    EXPECT_NEAR(init.energy, m.energy(init.bits), 1e-12);
    EXPECT_EQ(tabu.name(), "Tabu");
    EXPECT_THROW(sv::tabu_search({.max_iterations = 0}), std::invalid_argument);
}

TEST(ParallelTempering, FindsOptimumOnSpinGlass) {
    hcq::util::rng rng(19);
    const auto ising = q::sk_spin_glass(rng, 14);
    const auto m = q::to_qubo(ising);
    const auto exact = q::brute_force_minimize(m);
    const sv::parallel_tempering pt(
        {.num_replicas = 8, .num_rounds = 120, .sweeps_per_round = 2});
    auto prng = rng.derive(7);
    EXPECT_NEAR(solve_best(pt, m, prng).energy, exact.best_energy, 1e-9);
}

TEST(ParallelTempering, SampleCountAndValidation) {
    hcq::util::rng rng(20);
    const auto m = q::random_qubo(rng, 6, 1.0, -1.0, 1.0);
    const sv::parallel_tempering pt({.num_replicas = 4, .num_rounds = 10});
    const auto best = solve_best(pt, m, rng);
    EXPECT_NEAR(best.energy, m.energy(best.bits), 1e-12);
    EXPECT_THROW(sv::parallel_tempering({.num_replicas = 1}), std::invalid_argument);
    EXPECT_THROW(sv::parallel_tempering({.num_rounds = 0}), std::invalid_argument);
    EXPECT_EQ(pt.name(), "PT");
}

// ---------------------------------------------------------------------------
// Best-only selection rule.  The solvers keep only their winning state; these
// reference loops rebuild the sample sets they stand for (every SA read's
// final state; PT's cold replica after each round, then the lowest state any
// replica held), and sample_set::best() over them must pick the same bits
// and energy after the same rng draws.
// ---------------------------------------------------------------------------

sv::sample_set sa_reference_samples(const sv::sa_config& config, const q::qubo_model& m,
                                    hcq::util::rng& rng) {
    const double scale = m.max_abs_coefficient();
    const double t_hot = std::max(config.hot_fraction * scale, 1e-12);
    const double t_cold = std::max(config.cold_fraction * scale, 1e-15);
    const double ratio =
        config.num_sweeps > 1
            ? std::pow(t_cold / t_hot, 1.0 / static_cast<double>(config.num_sweeps - 1))
            : 1.0;
    sv::metropolis_engine engine;
    q::bit_vector start;
    sv::sample_set out;
    for (std::size_t read = 0; read < config.num_reads; ++read) {
        rng.bits_into(m.num_variables(), start);
        engine.reset(m, start);
        double temperature = t_hot;
        for (std::size_t s = 0; s < config.num_sweeps; ++s) {
            engine.sweep(temperature, rng);
            temperature *= ratio;
        }
        out.add(engine.state(), engine.energy());
    }
    return out;
}

sv::sample_set pt_reference_samples(const sv::pt_config& config, const q::qubo_model& m,
                                    hcq::util::rng& rng) {
    const double scale = std::max(m.max_abs_coefficient(), 1e-12);
    const std::size_t r = config.num_replicas;
    std::vector<double> temperature(r);
    const double t_hot = config.hot_fraction * scale;
    const double t_cold = config.cold_fraction * scale;
    const double ratio = std::pow(t_cold / t_hot, 1.0 / static_cast<double>(r - 1));
    for (std::size_t k = 0; k < r; ++k) {
        temperature[k] = t_hot * std::pow(ratio, static_cast<double>(k));
    }
    std::vector<std::unique_ptr<sv::metropolis_engine>> replicas;
    for (std::size_t k = 0; k < r; ++k) {
        replicas.push_back(
            std::make_unique<sv::metropolis_engine>(m, rng.bits(m.num_variables())));
    }
    sv::sample_set out;
    q::bit_vector held = replicas.back()->state();
    double held_energy = replicas.back()->energy();
    for (std::size_t round = 0; round < config.num_rounds; ++round) {
        for (std::size_t k = 0; k < r; ++k) {
            for (std::size_t s = 0; s < config.sweeps_per_round; ++s) {
                replicas[k]->sweep(temperature[k], rng);
            }
        }
        for (std::size_t k = round % 2; k + 1 < r; k += 2) {
            const double beta_a = 1.0 / temperature[k];
            const double beta_b = 1.0 / temperature[k + 1];
            const double delta =
                (beta_b - beta_a) * (replicas[k + 1]->energy() - replicas[k]->energy());
            if (delta >= 0.0 || rng.uniform() < std::exp(delta)) {
                std::swap(replicas[k], replicas[k + 1]);
            }
        }
        out.add(replicas.back()->state(), replicas.back()->energy());
        for (const auto& rep : replicas) {
            if (rep->energy() < held_energy) {
                held_energy = rep->energy();
                held = rep->state();
            }
        }
    }
    out.add(held, held_energy);
    return out;
}

/// Seeded random QUBOs, ferromagnetic chains with no field (all-zeros and
/// all-ones both ground states), and all-zero models (every state ties).
std::vector<q::qubo_model> selection_inputs() {
    std::vector<q::qubo_model> models;
    hcq::util::rng rng(2024);
    for (std::size_t i = 0; i < 40; ++i) {
        models.push_back(q::random_qubo(rng, 3 + i % 12, 0.7, -1.0, 1.0));
    }
    for (std::size_t n = 2; n <= 11; ++n) {
        models.push_back(q::to_qubo(q::ferromagnetic_chain(n, -1.0, 0.0)));
    }
    for (std::size_t n = 1; n <= 6; ++n) models.emplace_back(n);
    return models;
}

template <typename Reference>
void expect_best_of_reference(const sv::solver& solver, Reference&& reference) {
    const auto models = selection_inputs();
    for (std::size_t i = 0; i < models.size(); ++i) {
        SCOPED_TRACE("input " + std::to_string(i));
        hcq::util::rng want_rng(hcq::util::rng(77).derive(i)());
        hcq::util::rng got_rng = want_rng;
        const sv::sample want = reference(models[i], want_rng).best();
        const sv::sample got = solve_best(solver, models[i], got_rng);
        EXPECT_EQ(got.bits, want.bits);
        EXPECT_EQ(got.energy, want.energy);
        EXPECT_EQ(got_rng(), want_rng());
    }
}

TEST(BestOnlySelection, SimulatedAnnealingKeepsTheBestOfItsReads) {
    for (const sv::sa_config config :
         {sv::sa_config{.num_reads = 6, .num_sweeps = 4},
          sv::sa_config{.num_reads = 3, .num_sweeps = 1, .hot_fraction = 0.5},
          sv::sa_config{.num_reads = 5, .num_sweeps = 40}}) {
        expect_best_of_reference(sv::simulated_annealing(config),
                                 [&](const q::qubo_model& m, hcq::util::rng& rng) {
                                     return sa_reference_samples(config, m, rng);
                                 });
    }
}

TEST(BestOnlySelection, ParallelTemperingKeepsTheBestColdStateUnlessBeaten) {
    for (const sv::pt_config config :
         {sv::pt_config{.num_replicas = 4, .num_rounds = 6, .sweeps_per_round = 1},
          sv::pt_config{.num_replicas = 3, .num_rounds = 1, .sweeps_per_round = 1},
          sv::pt_config{}}) {
        expect_best_of_reference(sv::parallel_tempering(config),
                                 [&](const q::qubo_model& m, hcq::util::rng& rng) {
                                     return pt_reference_samples(config, m, rng);
                                 });
    }
}

}  // namespace
