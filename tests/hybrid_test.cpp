// Tests for the hybrid layer: TTS (Eq. 2), the hybrid solver, schedule
// evaluation, and the paper-corpus factory.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "classical/greedy.h"
#include "core/experiment.h"
#include "core/hybrid_solver.h"
#include "core/sweep.h"
#include "core/tts.h"
#include "detect/sphere.h"
#include "metrics/delta_e.h"
#include "util/rng.h"

namespace {

namespace hy = hcq::hybrid;
namespace an = hcq::anneal;
namespace wl = hcq::wireless;

TEST(Tts, KnownValues) {
    // p* = 0.5, C = 99%: log(0.01)/log(0.5) = 6.644 runs.
    EXPECT_NEAR(hy::time_to_solution_us(1.0, 0.5, 99.0), std::log(0.01) / std::log(0.5), 1e-9);
    // Doubling the duration doubles TTS.
    EXPECT_NEAR(hy::time_to_solution_us(2.0, 0.5, 99.0),
                2.0 * hy::time_to_solution_us(1.0, 0.5, 99.0), 1e-9);
}

TEST(Tts, EdgeCases) {
    EXPECT_TRUE(std::isinf(hy::time_to_solution_us(1.0, 0.0)));
    EXPECT_DOUBLE_EQ(hy::time_to_solution_us(3.0, 1.0), 3.0);
    // Very high p*: formula would dip below one read; clamps to duration.
    EXPECT_DOUBLE_EQ(hy::time_to_solution_us(3.0, 0.9999), 3.0);
    EXPECT_THROW((void)hy::time_to_solution_us(0.0, 0.5), std::invalid_argument);
    EXPECT_THROW((void)hy::time_to_solution_us(1.0, 0.5, 0.0), std::invalid_argument);
    EXPECT_THROW((void)hy::time_to_solution_us(1.0, 0.5, 100.0), std::invalid_argument);
}

TEST(Tts, MonotoneInSuccessProbability) {
    double prev = std::numeric_limits<double>::infinity();
    for (double p = 0.05; p < 1.0; p += 0.05) {
        const double tts = hy::time_to_solution_us(1.0, p);
        EXPECT_LE(tts, prev + 1e-12);
        prev = tts;
    }
}

TEST(Experiment, PaperInstanceGroundTruthHolds) {
    for (const auto mod : wl::all_modulations()) {
        hcq::util::rng rng(static_cast<std::uint64_t>(mod) + 50);
        const auto e = hy::make_paper_instance(rng, 36 / wl::bits_per_symbol(mod), mod);
        EXPECT_EQ(e.num_variables(), 36u) << wl::to_string(mod);
        EXPECT_TRUE(hy::verify_ground_truth(e)) << wl::to_string(mod);
        EXPECT_NEAR(e.optimal_energy, -e.reduced.model.offset(), 1e-6);
        EXPECT_LT(e.optimal_energy, 0.0);  // nontrivial negative minimum
    }
}

TEST(Experiment, GroundTruthConfirmedBySphereDecoder) {
    hcq::util::rng rng(51);
    const auto e = hy::make_paper_instance(rng, 8, wl::modulation::qam16);
    const auto sd = hcq::detect::sphere_detector().detect(e.instance);
    EXPECT_EQ(sd.bits, e.optimal_bits);
    EXPECT_NEAR(sd.ml_cost, 0.0, 1e-8);
}

TEST(Experiment, CorpusIsDeterministicAndSized) {
    const auto a = hy::make_paper_corpus(1234, 5, 4, wl::modulation::qam16);
    const auto b = hy::make_paper_corpus(1234, 5, 4, wl::modulation::qam16);
    ASSERT_EQ(a.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(a[i].optimal_bits, b[i].optimal_bits);
        EXPECT_DOUBLE_EQ(a[i].optimal_energy, b[i].optimal_energy);
    }
    // Different indices give different instances.
    EXPECT_NE(a[0].optimal_bits == a[1].optimal_bits &&
                  a[1].optimal_bits == a[2].optimal_bits,
              true);
    EXPECT_THROW((void)hy::make_paper_corpus(1, 0, 4, wl::modulation::qpsk),
                 std::invalid_argument);
}

TEST(Experiment, AdjacentSeedCorporaShareNoInstances) {
    // Seed + index streams must be jointly independent: corpora built from
    // adjacent master seeds (the common "seed, seed+1, ..." usage in benches)
    // must not reproduce each other's instances at any index pairing.
    const std::size_t count = 8;
    const auto a = hy::make_paper_corpus(900, count, 4, wl::modulation::qam16);
    const auto b = hy::make_paper_corpus(901, count, 4, wl::modulation::qam16);
    for (std::size_t i = 0; i < count; ++i) {
        for (std::size_t j = 0; j < count; ++j) {
            bool same_channel = true;
            const auto& ha = a[i].instance.h;
            const auto& hb = b[j].instance.h;
            for (std::size_t r = 0; r < ha.rows() && same_channel; ++r) {
                for (std::size_t c = 0; c < ha.cols(); ++c) {
                    if (ha(r, c) != hb(r, c)) {
                        same_channel = false;
                        break;
                    }
                }
            }
            EXPECT_FALSE(same_channel) << "corpora with seeds 900/901 share instance (" << i
                                       << ", " << j << ")";
        }
    }
    // The underlying derive() streams themselves must not collide either.
    const hcq::util::rng base_a(900);
    const hcq::util::rng base_b(901);
    for (std::size_t i = 0; i < count; ++i) {
        for (std::size_t j = 0; j < count; ++j) {
            hcq::util::rng sa = base_a.derive(i);
            hcq::util::rng sb = base_b.derive(j);
            EXPECT_NE(sa(), sb()) << "derive collision at (" << i << ", " << j << ")";
        }
    }
}

TEST(Experiment, AnnealerHarvestProducesBinnedRelaxedStates) {
    hcq::util::rng rng(58);
    const auto e = hy::make_paper_instance(rng, 8, wl::modulation::qam16);
    const an::annealer_emulator device;
    const auto bins = hy::harvest_annealer_states(e, device, 2.0, 10.0, 150, rng);
    EXPECT_EQ(bins.num_bins(), 5u);
    EXPECT_GT(bins.total(), 0u);
    for (std::size_t b = 0; b < bins.num_bins(); ++b) {
        for (const auto& state : bins.states[b]) {
            const double gap =
                hcq::metrics::delta_e_percent(e.reduced.model.energy(state), e.optimal_energy);
            EXPECT_GT(gap, 0.0);
            EXPECT_GE(gap, 2.0 * static_cast<double>(b) - 1e-9);
            EXPECT_LT(gap, 2.0 * static_cast<double>(b + 1) + 1e-9);
        }
    }
    EXPECT_THROW((void)hy::harvest_annealer_states(e, device, 0.0, 10.0, 10, rng),
                 std::invalid_argument);
    EXPECT_THROW((void)hy::harvest_annealer_states(e, device, 2.0, 10.0, 0, rng),
                 std::invalid_argument);
}

TEST(HybridSolver, RequiresReverseSchedule) {
    const hcq::solvers::greedy_search gs;
    const an::annealer_emulator device;
    EXPECT_THROW(hy::hybrid_solver(gs, device, an::anneal_schedule::forward_plain(1.0), 10),
                 std::invalid_argument);
    EXPECT_THROW(hy::hybrid_solver(gs, device, an::anneal_schedule::reverse(0.5, 1.0), 0),
                 std::invalid_argument);
}

TEST(HybridSolver, SolvesAndAccounts) {
    hcq::util::rng rng(54);
    const auto e = hy::make_paper_instance(rng, 4, wl::modulation::qam16);
    const hcq::solvers::greedy_search gs;
    const an::annealer_emulator device;
    const hy::hybrid_solver solver(gs, device, an::anneal_schedule::reverse(0.45, 1.0), 30);
    EXPECT_EQ(solver.name(), "GS+RA");
    EXPECT_EQ(solver.num_reads(), 30u);

    const auto result = solver.solve(e.reduced.model, rng);
    EXPECT_EQ(result.samples.size(), 30u);
    // The best result can never be worse than the classical candidate.
    EXPECT_LE(result.best_energy, result.initial.energy + 1e-12);
    EXPECT_NEAR(result.quantum_us, solver.schedule().duration_us() * 30.0, 1e-9);
    EXPECT_GE(result.classical_us, 0.0);
    EXPECT_NEAR(e.reduced.model.energy(result.best_bits), result.best_energy, 1e-9);
}

TEST(HybridSolver, GsInitialStateIsGoodQuality) {
    // The paper observes GS initial states are decent starting candidates
    // (theirs score roughly <= 10% under their metric).  With the paper's
    // ascending rank order our GS lands a bit higher in energy (see the
    // greedy-order ablation bench) but must stay far below random guessing
    // (~30%+) on every instance.
    hcq::util::rng rng(55);
    int good = 0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
        auto stream = rng.derive(t);
        const auto e = hy::make_paper_instance(stream, 8, wl::modulation::qam16);
        const auto init = hcq::solvers::greedy_search().initialize(e.reduced.model, stream);
        const double gap = hcq::metrics::delta_e_percent(init.energy, e.optimal_energy);
        if (gap <= 30.0) ++good;
    }
    EXPECT_GE(good, 8);
}

TEST(Sweep, PaperGridMatchesSection42) {
    const auto grid = hy::paper_sp_grid();
    ASSERT_FALSE(grid.empty());
    EXPECT_NEAR(grid.front(), 0.25, 1e-12);
    EXPECT_NEAR(grid[1] - grid[0], 0.04, 1e-12);
    EXPECT_LE(grid.back(), 0.99 + 1e-9);
    EXPECT_GE(grid.back(), 0.95);
    EXPECT_EQ(grid.size(), 19u);
}

TEST(Sweep, EvaluateScheduleAggregates) {
    hcq::util::rng rng(56);
    const auto e = hy::make_paper_instance(rng, 4, wl::modulation::qpsk);
    const an::annealer_emulator device;
    const auto eval =
        hy::evaluate_schedule(device, e.reduced.model, an::anneal_schedule::reverse(0.45, 1.0),
                              40, e.optimal_energy, rng, e.optimal_bits);
    EXPECT_EQ(eval.reads, 40u);
    EXPECT_NEAR(eval.duration_us, 2.0 * (1.0 - 0.45) + 1.0, 1e-12);
    EXPECT_GE(eval.p_star, 0.0);
    EXPECT_LE(eval.p_star, 1.0);
    EXPECT_GE(eval.mean_delta_e, 0.0);
    if (eval.p_star > 0.0) {
        EXPECT_GE(eval.tts_us, eval.duration_us);
    } else {
        EXPECT_TRUE(std::isinf(eval.tts_us));
    }
}

TEST(Sweep, FrOracleSearchesAboveSp) {
    hcq::util::rng rng(57);
    const auto e = hy::make_paper_instance(rng, 3, wl::modulation::qpsk);
    const an::annealer_emulator device;
    const auto fr = hy::best_forward_reverse(device, e.reduced.model, 0.41, 1.0, 1.0, 20,
                                             e.optimal_energy, rng);
    EXPECT_GT(fr.best_cp, 0.41);
    EXPECT_LT(fr.best_cp, 1.0);
    EXPECT_EQ(fr.eval.reads, 20u);
    EXPECT_THROW((void)hy::best_forward_reverse(device, e.reduced.model, 0.98, 1.0, 1.0, 5,
                                                e.optimal_energy, rng),
                 std::invalid_argument);
}

TEST(DeltaE, MetricSemantics) {
    EXPECT_DOUBLE_EQ(hcq::metrics::delta_e_percent(-10.0, -10.0), 0.0);
    EXPECT_DOUBLE_EQ(hcq::metrics::delta_e_percent(-9.0, -10.0), 10.0);
    EXPECT_DOUBLE_EQ(hcq::metrics::delta_e_percent(-10.0 - 1e-12, -10.0), 0.0);  // clamps
    EXPECT_THROW((void)hcq::metrics::delta_e_percent(1.0, 0.0), std::invalid_argument);
    EXPECT_EQ(hcq::metrics::delta_e_bin(3.9, 2.0), 1u);
    EXPECT_EQ(hcq::metrics::delta_e_bin(4.0, 2.0), 2u);
}

}  // namespace
