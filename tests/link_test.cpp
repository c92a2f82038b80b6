// Tests for the end-to-end link simulator: deterministic statistics at any
// thread count, golden values pinning the registry-driven implementation to
// the pre-redesign enum dispatch, correct report shapes, exactness of the
// sphere path on the paper's noiseless corpus, stage_trace percentile
// semantics, and configuration validation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "arq/arq.h"
#include "core/schedule.h"
#include "fec/code_spec.h"
#include "link/link_sim.h"
#include "paths/registry.h"

namespace {

namespace lk = hcq::link;
namespace pt = hcq::paths;
namespace wl = hcq::wireless;

lk::link_config small_config() {
    lk::link_config config;
    config.num_uses = 24;
    config.num_users = 2;
    config.mod = wl::modulation::qpsk;
    config.snr_db = 12.0;
    config.paths = pt::parse_spec_list("zf,mmse,kbest,sphere,sa:reads=4,sweeps=40,gsra:reads=10");
    config.seed = 77;
    return config;
}

TEST(LinkSim, StatisticsBitIdenticalAcrossThreadCounts) {
    auto config = small_config();

    config.num_threads = 1;
    const auto serial = lk::run_link_simulation(config);
    for (const std::size_t threads : {2UL, 8UL}) {
        config.num_threads = threads;
        const auto parallel = lk::run_link_simulation(config);
        ASSERT_EQ(parallel.paths.size(), serial.paths.size());
        for (std::size_t p = 0; p < serial.paths.size(); ++p) {
            SCOPED_TRACE(serial.paths[p].name + " @ " + std::to_string(threads) + " threads");
            EXPECT_EQ(parallel.paths[p].ber.errors(), serial.paths[p].ber.errors());
            EXPECT_EQ(parallel.paths[p].ber.total_bits(), serial.paths[p].ber.total_bits());
            EXPECT_EQ(parallel.paths[p].exact_frames, serial.paths[p].exact_frames);
            // Bit-identical, not just close: the serial use-order aggregation
            // must make the sum independent of scheduling.
            EXPECT_EQ(parallel.paths[p].sum_ml_cost, serial.paths[p].sum_ml_cost);
        }
    }
}

// Golden values of these exact configs, via a standalone dump.  First
// recorded from the pre-registry (enum-dispatch) link simulator at commit
// b461477, which the registry redesign reproduced statistic for statistic;
// re-recorded once when util::rng moved to Philox4x32-10, which changes
// every draw.  Integer statistics are exact; summed double costs are
// compared to a relative 1e-9 (identical operation order on identical
// inputs, with headroom for FMA contraction differences across compilers).
struct golden_row {
    const char* query;
    std::size_t errors;
    std::size_t total_bits;
    std::size_t exact_frames;
    double sum_ml_cost;
};

void expect_golden(const lk::link_report& report, const golden_row& want) {
    SCOPED_TRACE(want.query);
    const auto& path = report.path(want.query);
    EXPECT_EQ(path.ber.errors(), want.errors);
    EXPECT_EQ(path.ber.total_bits(), want.total_bits);
    EXPECT_EQ(path.exact_frames, want.exact_frames);
    EXPECT_NEAR(path.sum_ml_cost, want.sum_ml_cost, 1e-9 * want.sum_ml_cost);
}

TEST(LinkSim, GoldenStatisticsMatchEnumImplementation) {
    const golden_row golden[] = {
        {"ZF", 9, 96, 18, 23.495744279672071},
        {"MMSE", 6, 96, 19, 19.433146367539369},
        {"K-best", 3, 96, 22, 11.176321922318053},
        {"SD", 3, 96, 22, 11.176321922318053},
        {"SA", 3, 96, 22, 11.176321922318053},
        {"GS+RA", 4, 96, 22, 12.394055542556307},
    };
    auto config = small_config();
    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        config.num_threads = threads;
        const auto report = lk::run_link_simulation(config);
        for (const auto& row : golden) expect_golden(report, row);
    }
}

TEST(LinkSim, GoldenStatisticsMatchEnumImplementationHardScenario) {
    // A noisier 4-user 16-QAM stream where every path produces a distinct
    // statistic (no path is all-exact), so a dispatch or RNG-stream
    // regression in any single path is caught.
    const golden_row golden[] = {
        {"ZF", 47, 256, 3, 214.59658996478592},
        {"MMSE", 38, 256, 4, 167.34489321991038},
        {"K-best", 30, 256, 7, 93.772279668883101},
        {"SD", 28, 256, 8, 89.283760501448825},
        {"SA", 55, 256, 3, 127.28067085206874},
        {"GS+RA", 41, 256, 5, 93.78977727798636},
    };
    lk::link_config config;
    config.num_uses = 16;
    config.num_users = 4;
    config.mod = wl::modulation::qam16;
    config.snr_db = 14.0;
    config.paths = pt::parse_spec_list(
        "zf,mmse,kbest:width=4,sphere,sa:reads=3,sweeps=30,gsra:reads=8");
    config.seed = 2026;
    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        config.num_threads = threads;
        const auto report = lk::run_link_simulation(config);
        for (const auto& row : golden) expect_golden(report, row);
    }
}

TEST(LinkSim, GoldenTabuAndKbestSeededHybrids) {
    // The hybrid's other two classical modules: tabu (a QUBO solver) and
    // the K-best detector run on the channel use.  Recorded before the
    // classical modules shared one interface.  At 10 dB the reverse anneal
    // moves the K-best seed (K-best alone sums 143.439... on this stream),
    // so a quantum stage that stopped refining the seed is caught too.
    const golden_row golden[] = {
        {"Tabu+RA", 63, 256, 3, 143.30244079082027},
        {"KB+RA", 66, 256, 3, 142.87847199796209},
    };
    lk::link_config config;
    config.num_uses = 16;
    config.num_users = 4;
    config.mod = wl::modulation::qam16;
    config.snr_db = 10.0;
    config.paths = pt::parse_spec_list("gsra:reads=8,init=tabu,gsra:reads=8,init=kbest");
    config.seed = 2026;
    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        config.num_threads = threads;
        const auto report = lk::run_link_simulation(config);
        for (const auto& row : golden) expect_golden(report, row);
    }
}

TEST(LinkSim, SpherePathIsExactOnNoiselessPaperCorpus) {
    auto config = small_config();
    config.noiseless = true;
    config.channel = wl::channel_model::unit_gain_random_phase;
    config.paths = pt::parse_spec_list("sphere");
    const auto report = lk::run_link_simulation(config);
    const auto& sd = report.path("sphere");
    EXPECT_EQ(sd.ber.errors(), 0u);
    EXPECT_EQ(sd.exact_frames, config.num_uses);
    EXPECT_NEAR(sd.sum_ml_cost, 0.0, 1e-6);
}

TEST(LinkSim, ReportShapesAndStageComposition) {
    auto config = small_config();
    config.paths = pt::parse_spec_list("zf,sa:reads=4,sweeps=40,gsra:reads=10");
    const auto report = lk::run_link_simulation(config);

    EXPECT_EQ(report.synthesis.count(), config.num_uses);
    EXPECT_EQ(report.reduction.count(), config.num_uses);
    ASSERT_EQ(report.paths.size(), 3u);

    const auto& zf = report.path("zf");
    EXPECT_EQ(zf.stage_names(), (std::vector<std::string>{"synth", "detect"}));
    const auto& sa = report.path("sa");
    EXPECT_EQ(sa.stage_names(), (std::vector<std::string>{"synth", "qubo", "solve"}));
    const auto& hybrid = report.path("gsra");
    EXPECT_EQ(hybrid.stage_names(),
              (std::vector<std::string>{"synth", "qubo", "classical", "quantum"}));

    for (const auto& path : report.paths) {
        EXPECT_EQ(path.ber.total_bits(),
                  config.num_uses * config.num_users * wl::bits_per_symbol(config.mod));
        EXPECT_EQ(path.stage_servers.size(), path.stages.size());
        for (const auto& trace : path.stages) {
            EXPECT_EQ(trace.count(), config.num_uses);
            EXPECT_EQ(trace.replay_sample().size(),
                      std::min<std::size_t>(config.num_uses,
                                            lk::stage_trace::replay_sample_capacity));
            EXPECT_GE(trace.p99_us(), trace.p50_us());
        }
        EXPECT_EQ(path.service.count(), config.num_uses);
        EXPECT_EQ(path.replay.num_jobs, config.num_uses);
        EXPECT_EQ(path.replay.stage_utilization.size(), path.stages.size());
        EXPECT_GT(path.replay.throughput_per_us, 0.0);
    }

    // The hybrid's quantum stage is its programmed occupancy: duration x
    // reads (the spec defaults: s_p = 0.29, t_p = 1 us, 10 reads here).
    const double programmed_us =
        hcq::anneal::anneal_schedule::reverse(0.29, 1.0).duration_us() * 10.0;
    const auto& quantum = hybrid.stages.back();
    EXPECT_DOUBLE_EQ(quantum.max_us(), programmed_us);
    EXPECT_NEAR(quantum.mean_us(), programmed_us, 1e-9 * programmed_us);
    for (const double q_us : quantum.replay_sample()) {
        EXPECT_DOUBLE_EQ(q_us, programmed_us);
    }

    EXPECT_THROW((void)report.path("kbest"), std::out_of_range);
}

TEST(LinkSim, PathLookupMatchesKindNameAndSpec) {
    auto config = small_config();
    config.paths = pt::parse_spec_list("kbest:width=16,gsra:reads=10");
    const auto report = lk::run_link_simulation(config);
    EXPECT_EQ(&report.path("kbest"), &report.paths[0]);
    EXPECT_EQ(&report.path("K-best"), &report.paths[0]);
    EXPECT_EQ(&report.path("kbest:width=16"), &report.paths[0]);
    EXPECT_EQ(&report.path("GS+RA"), &report.paths[1]);
    EXPECT_EQ(report.paths[1].spec, "gsra:reads=10,sp=0.29,pause_us=1,init=gs");
}

TEST(LinkSim, SameKindTwiceWithDifferentKnobsRunsSideBySide) {
    auto config = small_config();
    config.paths = pt::parse_spec_list("kbest:width=1,kbest:width=8");
    const auto report = lk::run_link_simulation(config);
    ASSERT_EQ(report.paths.size(), 2u);
    EXPECT_EQ(report.paths[0].name, report.paths[1].name);
    // The wider beam's surviving set is a superset at every tree level, so
    // its summed ML cost can only be lower on the same uses.
    EXPECT_GE(report.path("kbest:width=1").sum_ml_cost,
              report.path("kbest:width=8").sum_ml_cost);
}

TEST(LinkSim, SummaryTableHasOneRowPerPath) {
    auto config = small_config();
    config.paths = pt::parse_spec_list("zf,gsra:reads=10");
    const auto report = lk::run_link_simulation(config);
    const auto t = lk::summary_table(report);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 13u);  // incl. err burst + replay's drop rate + peak queue
}

TEST(LinkSim, StageTracePercentileSemantics) {
    // Empty trace: nothing to summarise — mean/p50/p99 are all 0.
    const lk::stage_trace empty{"empty"};
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.mean_us(), 0.0);
    EXPECT_EQ(empty.p50_us(), 0.0);
    EXPECT_EQ(empty.p99_us(), 0.0);
    EXPECT_TRUE(empty.replay_sample().empty());

    // Single entry: every percentile is that entry exactly (the digest
    // clamps into [min, max]).
    const lk::stage_trace single{"single", std::vector<double>{42.5}};
    EXPECT_DOUBLE_EQ(single.mean_us(), 42.5);
    EXPECT_DOUBLE_EQ(single.p50_us(), 42.5);
    EXPECT_DOUBLE_EQ(single.p99_us(), 42.5);
    EXPECT_DOUBLE_EQ(single.max_us(), 42.5);

    // Two distinct entries: digest percentiles stay within the data range
    // and keep their ordering; the mean is exact.
    const lk::stage_trace pair{"pair", {10.0, 20.0}};
    EXPECT_DOUBLE_EQ(pair.mean_us(), 15.0);
    EXPECT_GE(pair.p50_us(), 10.0);
    EXPECT_LE(pair.p50_us(), 20.0);
    EXPECT_GE(pair.p99_us(), pair.p50_us());
    EXPECT_LE(pair.p99_us(), 20.0);
    EXPECT_EQ(pair.replay_sample(), (std::vector<double>{10.0, 20.0}));
}

TEST(LinkSim, StageTraceSampleIsBoundedButStatisticsCoverEverything) {
    lk::stage_trace trace{"bounded"};
    const std::size_t n = lk::stage_trace::replay_sample_capacity + 100;
    for (std::size_t i = 0; i < n; ++i) trace.add(static_cast<double>(i % 7) + 1.0);
    EXPECT_EQ(trace.count(), n);
    EXPECT_EQ(trace.replay_sample().size(), lk::stage_trace::replay_sample_capacity);
    EXPECT_DOUBLE_EQ(trace.replay_sample()[3], 4.0);  // stream order preserved
    EXPECT_DOUBLE_EQ(trace.max_us(), 7.0);            // exact over ALL entries
}

TEST(LinkSim, StageTraceStrideSpreadsTheSampleAcrossTheStream) {
    // With a stride the sample covers the whole stream uniformly instead of
    // just the warm-up head: entry i is kept iff i % stride == 0.
    lk::stage_trace strided{"strided", 4};
    for (std::size_t i = 0; i < 16; ++i) strided.add(static_cast<double>(i));
    EXPECT_EQ(strided.count(), 16u);
    EXPECT_EQ(strided.replay_sample(), (std::vector<double>{0.0, 4.0, 8.0, 12.0}));
    EXPECT_DOUBLE_EQ(strided.max_us(), 15.0);  // digest still sees everything
}

TEST(LinkSim, KxraStatisticsIdenticalToGsra) {
    // The acceptance criterion: K interchangeable (emulated) annealer
    // devices round-robining one stream must produce the same detection
    // statistics as the single-device hybrid with the same knobs — every
    // (use, path) cell draws from the same derived RNG stream, device
    // multiplicity only changes the pipeline replay.
    auto config = small_config();
    config.paths = pt::parse_spec_list("gsra:reads=10");
    const auto gsra = lk::run_link_simulation(config);
    config.paths = pt::parse_spec_list("kxra:k=2,reads=10");
    const auto kxra = lk::run_link_simulation(config);

    const auto& g = gsra.path("gsra");
    const auto& k = kxra.path("kxra");
    EXPECT_EQ(k.ber.errors(), g.ber.errors());
    EXPECT_EQ(k.ber.total_bits(), g.ber.total_bits());
    EXPECT_EQ(k.exact_frames, g.exact_frames);
    EXPECT_EQ(k.sum_ml_cost, g.sum_ml_cost);

    // The replay serves the quantum stage with 2 round-robin devices.  (The
    // resulting throughput gain is pinned deterministically in
    // pipeline_test's MultiServer suite — comparing two separately-paced
    // replays here would depend on wall-clock noise.)
    EXPECT_EQ(k.stage_servers, (std::vector<std::size_t>{1, 1, 1, 2}));
    EXPECT_EQ(g.stage_servers, (std::vector<std::size_t>{1, 1, 1, 1}));
    EXPECT_EQ(k.name, "GS+RAx2");
    EXPECT_EQ(k.spec, "kxra:k=2,reads=10,sp=0.29,pause_us=1,init=gs");
}

TEST(LinkSim, GsraInitUnsetIsBitIdenticalToExplicitGs) {
    // ROADMAP: the init key is golden-pinned to the default initialiser
    // when unset — "gsra" and "gsra:init=gs" canonicalise identically and
    // produce the same statistics (the goldens above additionally pin that
    // this IS the pre-init-key behaviour).
    auto config = small_config();
    config.paths = pt::parse_spec_list("gsra:reads=10");
    const auto unset = lk::run_link_simulation(config);
    config.paths = pt::parse_spec_list("gsra:reads=10,init=gs");
    const auto explicit_gs = lk::run_link_simulation(config);
    EXPECT_EQ(unset.paths[0].spec, explicit_gs.paths[0].spec);
    EXPECT_EQ(unset.paths[0].ber.errors(), explicit_gs.paths[0].ber.errors());
    EXPECT_EQ(unset.paths[0].exact_frames, explicit_gs.paths[0].exact_frames);
    EXPECT_EQ(unset.paths[0].sum_ml_cost, explicit_gs.paths[0].sum_ml_cost);
}

TEST(LinkSim, GsraInitialiserVariantsRunSideBySide) {
    // Different init values canonicalise differently, so the three hybrid
    // flavours are a legitimate side-by-side comparison in one stream.
    lk::link_config config;
    config.num_uses = 12;
    config.num_users = 4;
    config.mod = wl::modulation::qam16;
    config.snr_db = 14.0;
    config.seed = 2026;
    config.num_threads = 1;
    config.paths = pt::parse_spec_list(
        "gsra:reads=8,gsra:reads=8,init=tabu,gsra:reads=8,init=kbest");
    const auto report = lk::run_link_simulation(config);
    ASSERT_EQ(report.paths.size(), 3u);
    EXPECT_EQ(report.paths[0].name, "GS+RA");
    EXPECT_EQ(report.paths[1].name, "Tabu+RA");
    EXPECT_EQ(report.paths[2].name, "KB+RA");
    for (const auto& path : report.paths) {
        EXPECT_EQ(path.stage_names(),
                  (std::vector<std::string>{"synth", "qubo", "classical", "quantum"}));
        EXPECT_EQ(path.ber.total_bits(), 12u * 4u * 4u);
    }
}

TEST(LinkSim, StreamBlockSizeDoesNotChangeStatistics) {
    // Window-by-window aggregation must be invisible: derived RNG streams
    // are indexed by the global use index and the fold is serial in use
    // order, so any block size yields bit-identical statistics.
    auto config = small_config();
    config.stream_block = 1024;
    const auto big = lk::run_link_simulation(config);
    for (const std::size_t block : {1UL, 5UL, 7UL}) {
        SCOPED_TRACE("stream_block " + std::to_string(block));
        config.stream_block = block;
        const auto windowed = lk::run_link_simulation(config);
        ASSERT_EQ(windowed.paths.size(), big.paths.size());
        for (std::size_t p = 0; p < big.paths.size(); ++p) {
            EXPECT_EQ(windowed.paths[p].ber.errors(), big.paths[p].ber.errors());
            EXPECT_EQ(windowed.paths[p].exact_frames, big.paths[p].exact_frames);
            EXPECT_EQ(windowed.paths[p].sum_ml_cost, big.paths[p].sum_ml_cost);
        }
    }
}

TEST(LinkSim, BoundedReplayReportsDropsAndOccupancy) {
    auto config = small_config();
    config.paths = pt::parse_spec_list("sa:reads=4,sweeps=40");
    config.offered_load = 4.0;  // far past saturation
    config.buffer_capacity = 1;
    config.policy = hcq::pipeline::backpressure::drop_newest;
    const auto report = lk::run_link_simulation(config);
    const auto& replay = report.path("sa").replay;
    EXPECT_EQ(replay.num_jobs, config.num_uses);
    EXPECT_EQ(replay.jobs_completed + replay.jobs_dropped, config.num_uses);
    EXPECT_GT(replay.jobs_dropped, 0u);
    EXPECT_GT(replay.drop_rate, 0.0);
    EXPECT_LT(replay.drop_rate, 1.0);
    std::size_t stage_drop_sum = 0;
    for (const std::size_t d : replay.stage_drops) stage_drop_sum += d;
    EXPECT_EQ(stage_drop_sum, replay.jobs_dropped);
    bool some_queue = false;
    for (const std::size_t q : replay.max_queue_len) {
        EXPECT_LE(q, config.buffer_capacity);
        some_queue = some_queue || q > 0;
    }
    EXPECT_TRUE(some_queue);
    // Constant-memory replay: no per-job latency vector.
    EXPECT_TRUE(replay.latencies_us.empty());
}

TEST(LinkSim, ConfigValidation) {
    {
        auto config = small_config();
        config.num_uses = 0;
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        auto config = small_config();
        config.num_users = 0;
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        auto config = small_config();
        config.paths = {};
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        auto config = small_config();
        config.offered_load = 0.0;
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        // Exact duplicates are rejected...
        auto config = small_config();
        config.paths = pt::parse_spec_list("zf,zf");
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        // ...including via canonicalisation: "kbest" IS "kbest:width=8".
        auto config = small_config();
        config.paths = pt::parse_spec_list("kbest,kbest:width=8");
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        auto config = small_config();
        config.paths = pt::parse_spec_list("warp-drive");
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        auto config = small_config();
        config.paths = pt::parse_spec_list("kbest:width=0");
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        auto config = small_config();
        config.paths = pt::parse_spec_list("gsra:reads=0");
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        auto config = small_config();
        config.paths = pt::parse_spec_list("kxra:k=0");
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        // Buffer capacity 0 could never admit a job — rejected up front.
        auto config = small_config();
        config.buffer_capacity = 0;
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        auto config = small_config();
        config.stream_block = 0;
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
    {
        // A malformed channel spec is rejected like a malformed path spec.
        auto config = small_config();
        // hcq-lint: allow(channel-spec-literal) hand-built to prove re-validation
        config.channel_spec = wl::channel_spec{};
        config.channel_spec->kind = "jakes";
        config.channel_spec->doppler_hz = -4.0;  // hand-built, bypassing parse
        EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    }
}

// ---------------------------------------------------------------------------
// Realistic channels (--channel specs): determinism, golden equivalence,
// burst structure, imperfect CSI
// ---------------------------------------------------------------------------

TEST(LinkChannel, ExplicitRayleighSpecIsBitIdenticalToUnset) {
    // The new golden of this PR: `--channel rayleigh` (est_err unset) must
    // reproduce the legacy i.i.d. draw byte-for-byte, so every existing
    // golden test and bench baseline stays valid with --channel unset.
    auto config = small_config();
    const auto legacy = lk::run_link_simulation(config);
    config.channel_spec = wl::channel_spec::parse("rayleigh");
    const auto spec_run = lk::run_link_simulation(config);
    ASSERT_EQ(spec_run.paths.size(), legacy.paths.size());
    for (std::size_t p = 0; p < legacy.paths.size(); ++p) {
        SCOPED_TRACE(legacy.paths[p].name);
        EXPECT_EQ(spec_run.paths[p].ber.errors(), legacy.paths[p].ber.errors());
        EXPECT_EQ(spec_run.paths[p].ber.total_bits(), legacy.paths[p].ber.total_bits());
        EXPECT_EQ(spec_run.paths[p].exact_frames, legacy.paths[p].exact_frames);
        EXPECT_EQ(spec_run.paths[p].sum_ml_cost, legacy.paths[p].sum_ml_cost);
        EXPECT_EQ(spec_run.paths[p].bursts.error_frames, legacy.paths[p].bursts.error_frames);
        EXPECT_EQ(spec_run.paths[p].bursts.bursts, legacy.paths[p].bursts.bursts);
        EXPECT_EQ(spec_run.paths[p].bursts.longest_burst,
                  legacy.paths[p].bursts.longest_burst);
    }
}

TEST(LinkChannel, CorrelatedFadingStatisticsBitIdenticalAcrossThreads) {
    // The tentpole determinism claim: the frozen sum-of-sinusoids processes
    // make correlated-channel statistics — including burst structure and
    // ARQ counters — bit-identical at any thread count.
    auto config = small_config();
    config.num_uses = 48;
    config.paths = pt::parse_spec_list("zf,gsra:reads=8");
    config.channel_spec = wl::channel_spec::parse("jakes:doppler_hz=5,est_err=0.02");
    config.arq = hcq::arq::parse_arq("max_retx=2");
    config.num_threads = 1;
    const auto serial = lk::run_link_simulation(config);
    for (const std::size_t threads : {2UL, 8UL}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        config.num_threads = threads;
        const auto parallel = lk::run_link_simulation(config);
        ASSERT_EQ(parallel.paths.size(), serial.paths.size());
        for (std::size_t p = 0; p < serial.paths.size(); ++p) {
            SCOPED_TRACE(serial.paths[p].name);
            EXPECT_EQ(parallel.paths[p].ber.errors(), serial.paths[p].ber.errors());
            EXPECT_EQ(parallel.paths[p].exact_frames, serial.paths[p].exact_frames);
            EXPECT_EQ(parallel.paths[p].sum_ml_cost, serial.paths[p].sum_ml_cost);
            EXPECT_EQ(parallel.paths[p].bursts.longest_burst,
                      serial.paths[p].bursts.longest_burst);
            EXPECT_EQ(parallel.paths[p].bursts.bursts, serial.paths[p].bursts.bursts);
            const auto& serial_arq = serial.paths[p].arq->counters;
            const auto& parallel_arq = parallel.paths[p].arq->counters;
            EXPECT_EQ(parallel_arq.attempts, serial_arq.attempts);
            EXPECT_EQ(parallel_arq.wrong_attempts, serial_arq.wrong_attempts);
            EXPECT_EQ(parallel_arq.corrected_frames, serial_arq.corrected_frames);
            EXPECT_EQ(parallel_arq.residual_errors, serial_arq.residual_errors);
        }
    }
}

TEST(LinkChannel, CorrelatedFadingStatisticsInvariantToStreamBlock) {
    auto config = small_config();
    config.num_uses = 40;
    config.paths = pt::parse_spec_list("zf");
    config.channel_spec = wl::channel_spec::parse("watterson:taps=2,spread_hz=3");
    config.arq = hcq::arq::parse_arq("max_retx=1");
    config.stream_block = 1024;
    const auto big = lk::run_link_simulation(config);
    for (const std::size_t block : {1UL, 3UL, 7UL}) {
        SCOPED_TRACE("stream_block " + std::to_string(block));
        config.stream_block = block;
        const auto windowed = lk::run_link_simulation(config);
        EXPECT_EQ(windowed.paths[0].ber.errors(), big.paths[0].ber.errors());
        EXPECT_EQ(windowed.paths[0].sum_ml_cost, big.paths[0].sum_ml_cost);
        // Burst runs span window boundaries; the carry across folds must
        // make them block-invariant too.
        EXPECT_EQ(windowed.paths[0].bursts.bursts, big.paths[0].bursts.bursts);
        EXPECT_EQ(windowed.paths[0].bursts.longest_burst, big.paths[0].bursts.longest_burst);
        EXPECT_EQ(windowed.paths[0].arq->counters.attempts, big.paths[0].arq->counters.attempts);
        EXPECT_EQ(windowed.paths[0].arq->counters.residual_errors,
                  big.paths[0].arq->counters.residual_errors);
    }
}

TEST(LinkChannel, ArqRetransmissionsDrawFromFrameAttemptDomainUnderFading) {
    // Enabling ARQ must not perturb any open-loop statistic under fading:
    // retransmission synthesis draws live in the (frame, attempt)-derived
    // arq domains and the fading process is evaluated closed-form, so the
    // open-loop BER/ML-cost stream is untouched.
    auto config = small_config();
    config.paths = pt::parse_spec_list("zf,gsra:reads=8");
    config.channel_spec = wl::channel_spec::parse("jakes:doppler_hz=5");
    const auto open = lk::run_link_simulation(config);
    config.arq = hcq::arq::parse_arq("max_retx=2");
    const auto closed = lk::run_link_simulation(config);
    for (std::size_t p = 0; p < open.paths.size(); ++p) {
        SCOPED_TRACE(open.paths[p].name);
        EXPECT_EQ(closed.paths[p].ber.errors(), open.paths[p].ber.errors());
        EXPECT_EQ(closed.paths[p].exact_frames, open.paths[p].exact_frames);
        EXPECT_EQ(closed.paths[p].sum_ml_cost, open.paths[p].sum_ml_cost);
        // And the chain bookkeeping is consistent.
        const auto& counters = closed.paths[p].arq->counters;
        EXPECT_EQ(counters.frames, config.num_uses);
        EXPECT_GE(counters.attempts, counters.frames);
        EXPECT_LE(counters.attempts, counters.frames * 3);  // max_retx=2
    }
}

TEST(LinkChannel, LowDopplerConcentratesRetransmissionFailures) {
    // The acceptance scenario's mechanism, asserted deterministically: at
    // doppler_hz=5 (coherence >> retx lag) a frame that failed in a fade
    // retries INSIDE the fade, so retransmissions rescue a smaller fraction
    // of failed frames than on the i.i.d. channel, where every retry is a
    // fresh draw.  Compared via the residual fraction of ARQ-engaged frames:
    // residual / (residual + corrected).
    // 21 dB keeps the i.i.d. baseline in the retries-usually-rescue regime
    // (stuck fraction ~0.10) while deep slow fades stay lethal (~0.44) —
    // measured margins of ~4x against both asserted factors of 2.
    lk::link_config config;
    config.num_uses = 600;
    config.num_users = 2;
    config.mod = wl::modulation::qam16;
    config.snr_db = 21.0;
    config.paths = pt::parse_spec_list("zf");
    config.seed = 7;
    config.arq = hcq::arq::parse_arq("max_retx=1");

    config.channel_spec = wl::channel_spec::parse("jakes:doppler_hz=5");
    const auto slow = lk::run_link_simulation(config);
    config.channel_spec = wl::channel_spec::parse("rayleigh");
    const auto iid = lk::run_link_simulation(config);

    const auto stuck_fraction = [](const hcq::arq::counters& c) {
        const auto engaged = c.residual_errors + c.corrected_frames;
        return engaged == 0 ? 0.0
                            : static_cast<double>(c.residual_errors) /
                                  static_cast<double>(engaged);
    };
    const auto& slow_arq = slow.paths[0].arq->counters;
    const auto& iid_arq = iid.paths[0].arq->counters;
    ASSERT_GT(slow_arq.residual_errors + slow_arq.corrected_frames, 20u);
    ASSERT_GT(iid_arq.residual_errors + iid_arq.corrected_frames, 20u);
    EXPECT_GT(stuck_fraction(slow_arq), 2.0 * stuck_fraction(iid_arq));
    // The burst structure itself: the slow-fading error runs dwarf i.i.d.
    EXPECT_GT(slow.paths[0].bursts.longest_burst, 2 * iid.paths[0].bursts.longest_burst);
    EXPECT_GT(slow.paths[0].bursts.mean_burst_length(),
              iid.paths[0].bursts.mean_burst_length());
}

TEST(LinkChannel, ImperfectCsiDegradesDetection) {
    // Detectors solving against H_est while the channel applied H_true must
    // do worse than with perfect CSI, monotonically in est_err.
    lk::link_config config;
    config.num_uses = 300;
    config.num_users = 2;
    config.mod = wl::modulation::qam16;
    config.snr_db = 18.0;
    config.paths = pt::parse_spec_list("zf");
    config.seed = 21;
    config.channel_spec = wl::channel_spec::parse("rayleigh");
    const auto perfect = lk::run_link_simulation(config);
    config.channel_spec = wl::channel_spec::parse("rayleigh:est_err=0.1");
    const auto noisy_csi = lk::run_link_simulation(config);
    EXPECT_GT(noisy_csi.paths[0].ber.errors(), perfect.paths[0].ber.errors());
}

TEST(LinkChannel, SpecSnrOverrideBeatsConfigSnr) {
    // snr_db inside the spec overrides link_config::snr_db: running with a
    // config SNR of 30 dB but a spec SNR of 30 dB must equal a plain 30 dB
    // run, and differ from config-only 8 dB.
    auto config = small_config();
    config.paths = pt::parse_spec_list("zf");
    config.snr_db = 30.0;
    config.channel_spec = wl::channel_spec::parse("rayleigh");
    const auto high = lk::run_link_simulation(config);
    config.snr_db = 8.0;
    config.channel_spec = wl::channel_spec::parse("rayleigh:snr_db=30");
    const auto overridden = lk::run_link_simulation(config);
    EXPECT_EQ(overridden.paths[0].ber.errors(), high.paths[0].ber.errors());
    EXPECT_EQ(overridden.paths[0].sum_ml_cost, high.paths[0].sum_ml_cost);
    config.channel_spec = wl::channel_spec::parse("rayleigh");
    const auto low = lk::run_link_simulation(config);
    EXPECT_GE(low.paths[0].ber.errors(), overridden.paths[0].ber.errors());
}

// ---------------------------------------------------------------------------
// Coded link (link_config::fec): the soft chain end to end
// ---------------------------------------------------------------------------

// The fixed gate config of the coded A/B tests: correlated fading bursty
// enough that the interleaver + soft Viterbi visibly pay off.
lk::link_config coded_gate_config() {
    lk::link_config config;
    config.num_uses = 120;
    config.num_users = 4;
    config.mod = wl::modulation::qam16;
    config.snr_db = 10.0;
    config.channel_spec = wl::channel_spec::parse("jakes:doppler_hz=40");
    config.paths = pt::parse_spec_list("zf,kbest");
    config.seed = 7;
    config.fec = hcq::fec::code_spec::parse("k5:interleave=8x8");  // 4 uses/frame
    return config;
}

TEST(LinkFec, ReportCarriesFecStatisticsIffConfigured) {
    auto config = coded_gate_config();
    const auto coded = lk::run_link_simulation(config);
    for (const auto& path : coded.paths) {
        ASSERT_TRUE(path.fec.has_value()) << path.name;
        EXPECT_EQ(path.fec->frames, config.num_uses / 4);  // whole frames
        EXPECT_LE(path.fec->frame_errors, path.fec->frames);
        EXPECT_EQ(path.fec->info_ber.total_bits(),
                  path.fec->frames * config.fec->info_bits());
    }
    config.fec.reset();
    const auto uncoded = lk::run_link_simulation(config);
    for (const auto& path : uncoded.paths) EXPECT_FALSE(path.fec.has_value());
}

TEST(LinkFec, CodedFerBeatsUncodedFrameErrorRateUnderFading) {
    // The point of the whole chain: at the gate config the coded link's
    // frame error rate must land below the uncoded per-use error rate the
    // same detectors deliver on the same channel realisations.  960 uses
    // (240 frames): at 120 the K-best margin holds on only 15 of seeds 7-26.
    auto config = coded_gate_config();
    config.num_uses = 960;
    const auto report = lk::run_link_simulation(config);
    for (const auto& path : report.paths) {
        SCOPED_TRACE(path.name);
        const double uncoded_use_fer =
            1.0 - static_cast<double>(path.exact_frames) /
                      static_cast<double>(config.num_uses);
        EXPECT_LT(path.fec->coded_fer(), uncoded_use_fer);
    }
}

TEST(LinkFec, ChaseCombiningBeatsPlainArqAtFixedSeeds) {
    // Hybrid ARQ: chase (accumulate LLRs across attempts, decode the
    // combined frame) versus plain (each attempt decodes alone) on the same
    // seeds.  Chase must deliver no more residual frame errors anywhere and
    // strictly fewer somewhere.
    auto config = coded_gate_config();
    config.arq = hcq::arq::parse_arq("max_retx=2");
    config.arq->combining = hcq::arq::combining_mode::chase;
    const auto chase = lk::run_link_simulation(config);
    config.arq->combining = hcq::arq::combining_mode::plain;
    const auto plain = lk::run_link_simulation(config);
    std::size_t strictly_better = 0;
    for (std::size_t p = 0; p < chase.paths.size(); ++p) {
        SCOPED_TRACE(chase.paths[p].name);
        const auto& ca = chase.paths[p].arq->counters;
        const auto& pa = plain.paths[p].arq->counters;
        EXPECT_LE(ca.residual_errors, pa.residual_errors);
        EXPECT_LE(ca.attempts, pa.attempts);  // combining converges sooner
        strictly_better += ca.residual_errors < pa.residual_errors;
    }
    EXPECT_GE(strictly_better, 1u);
}

TEST(LinkFec, CodedStatisticsBitIdenticalAcrossThreadsAndStreamBlock) {
    auto config = coded_gate_config();
    config.snr_db = 11.0;
    config.paths = pt::parse_spec_list("zf,kbest,gsra");
    config.arq = hcq::arq::parse_arq("max_retx=2");

    config.num_threads = 1;
    const auto serial = lk::run_link_simulation(config);
    const auto expect_same = [&](const lk::link_report& other, const char* what) {
        ASSERT_EQ(other.paths.size(), serial.paths.size());
        for (std::size_t p = 0; p < serial.paths.size(); ++p) {
            SCOPED_TRACE(std::string(what) + " " + serial.paths[p].name);
            EXPECT_EQ(other.paths[p].ber.errors(), serial.paths[p].ber.errors());
            EXPECT_EQ(other.paths[p].fec->frame_errors, serial.paths[p].fec->frame_errors);
            EXPECT_EQ(other.paths[p].fec->info_ber.errors(),
                      serial.paths[p].fec->info_ber.errors());
            EXPECT_EQ(other.paths[p].arq->counters.attempts,
                      serial.paths[p].arq->counters.attempts);
            EXPECT_EQ(other.paths[p].arq->counters.residual_errors,
                      serial.paths[p].arq->counters.residual_errors);
            EXPECT_EQ(other.paths[p].arq->counters.corrected_frames,
                      serial.paths[p].arq->counters.corrected_frames);
        }
    };
    for (const std::size_t threads : {2UL, 8UL}) {
        config.num_threads = threads;
        expect_same(lk::run_link_simulation(config), "threads");
    }
    config.num_threads = 8;
    for (const std::size_t block : {3UL, 40UL}) {
        config.stream_block = block;
        expect_same(lk::run_link_simulation(config), "stream_block");
    }
}

TEST(LinkFec, PartialFrameGeometryThrows) {
    auto config = coded_gate_config();
    config.num_uses = 5;  // 4 uses/frame: a partial trailing frame
    EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
}

}  // namespace
