// Tests for the ARQ / retransmission layer: config parsing, the
// deterministic retransmission decision, counter arithmetic, the
// closed-loop trace replay on hand-checkable constant stages, and the link
// integration edge cases the acceptance criteria name — max_retx=0 equals
// the open loop bit for bit, deadline 0 retransmits every frame until
// max_retx, and the detection-domain ARQ counters are bit-identical at any
// thread count and stream_block size.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "arq/arq.h"
#include "link/link_sim.h"
#include "paths/registry.h"

namespace {

namespace aq = hcq::arq;
namespace lk = hcq::link;
namespace pl = hcq::pipeline;
namespace pt = hcq::paths;
namespace wl = hcq::wireless;

// ---------------------------------------------------------------------------
// Config parsing
// ---------------------------------------------------------------------------

TEST(ArqConfig, ParsesDefaultsAndKeys) {
    const auto defaults = aq::parse_arq("");
    EXPECT_EQ(defaults.deadline_us, aq::no_deadline);
    EXPECT_FALSE(defaults.deadline_auto);
    EXPECT_EQ(defaults.max_retx, 1u);

    // A bare `--arq` flag parses to "true": enable with defaults.
    EXPECT_EQ(aq::parse_arq("true").max_retx, 1u);

    const auto full = aq::parse_arq("deadline_us=500,max_retx=2");
    EXPECT_DOUBLE_EQ(full.deadline_us, 500.0);
    EXPECT_FALSE(full.deadline_auto);
    EXPECT_EQ(full.max_retx, 2u);

    const auto swapped = aq::parse_arq("max_retx=0,deadline_us=0");
    EXPECT_DOUBLE_EQ(swapped.deadline_us, 0.0);
    EXPECT_EQ(swapped.max_retx, 0u);

    const auto autod = aq::parse_arq("deadline_us=auto");
    EXPECT_TRUE(autod.deadline_auto);

    EXPECT_EQ(aq::parse_arq("deadline_us=none").deadline_us, aq::no_deadline);

    // Hybrid-ARQ combining: chase by default, plain as the A/B baseline.
    EXPECT_EQ(defaults.combining, aq::combining_mode::chase);
    EXPECT_EQ(aq::parse_arq("combining=plain").combining, aq::combining_mode::plain);
    EXPECT_EQ(aq::parse_arq("combining=chase,max_retx=3").combining,
              aq::combining_mode::chase);
}

TEST(ArqConfig, ToStringRoundTrips) {
    // Canonical form has every key explicit (registry style), so the
    // combining mode always appears.
    EXPECT_EQ(aq::parse_arq("deadline_us=500,max_retx=2").to_string(),
              "deadline_us=500,max_retx=2,combining=chase");
    EXPECT_EQ(aq::arq_config{}.to_string(), "deadline_us=none,max_retx=1,combining=chase");
    EXPECT_EQ(aq::parse_arq("deadline_us=auto").to_string(),
              "deadline_us=auto,max_retx=1,combining=chase");
    EXPECT_EQ(aq::parse_arq("combining=plain,max_retx=2").to_string(),
              "deadline_us=none,max_retx=2,combining=plain");
    // A deadline prints as the value that runs (the precision spec values
    // print at), so the canonical text parses back to the same config.
    for (const char* text : {"deadline_us=123.45678,max_retx=1,combining=chase",
                             "deadline_us=2000000,max_retx=1,combining=chase"}) {
        SCOPED_TRACE(text);
        const aq::arq_config config = aq::parse_arq(text);
        EXPECT_EQ(config.to_string(), text);
        const aq::arq_config back = aq::parse_arq(config.to_string());
        EXPECT_EQ(back.deadline_us, config.deadline_us);
        EXPECT_EQ(back.deadline_auto, config.deadline_auto);
        EXPECT_EQ(back.max_retx, config.max_retx);
        EXPECT_EQ(back.combining, config.combining);
    }
}

TEST(ArqConfig, RejectsMalformedSpecs) {
    EXPECT_THROW((void)aq::parse_arq("combining=maximal"), std::invalid_argument);
    EXPECT_THROW((void)aq::parse_arq("deadline_us=soon"), std::invalid_argument);
    EXPECT_THROW((void)aq::parse_arq("deadline_us=-3"), std::invalid_argument);
    EXPECT_THROW((void)aq::parse_arq("max_retx=-1"), std::invalid_argument);
    EXPECT_THROW((void)aq::parse_arq("max_retx=lots"), std::invalid_argument);
    EXPECT_THROW((void)aq::parse_arq("warp=9"), std::invalid_argument);
    EXPECT_THROW((void)aq::parse_arq("deadline_us"), std::invalid_argument);
    EXPECT_THROW((void)aq::parse_arq("=5"), std::invalid_argument);
    // max_retx sizes the link's per-worker frame buffers: it is bounded.
    EXPECT_NO_THROW((void)aq::parse_arq("max_retx=64"));
    EXPECT_THROW((void)aq::parse_arq("max_retx=65"), std::invalid_argument);
    EXPECT_THROW((void)aq::parse_arq("max_retx=9223372036854775807"), std::invalid_argument);
    // A repeated key is an error, as in every spec family.
    EXPECT_THROW((void)aq::parse_arq("max_retx=1,max_retx=2"), std::invalid_argument);
}

TEST(ArqConfig, NeedsRetxSemantics) {
    aq::arq_config config;  // no deadline, max_retx = 1
    EXPECT_TRUE(aq::needs_retx(config, /*bits_ok=*/false, /*attempt=*/0));
    EXPECT_FALSE(aq::needs_retx(config, /*bits_ok=*/true, /*attempt=*/0));
    EXPECT_FALSE(aq::needs_retx(config, /*bits_ok=*/false, /*attempt=*/1));  // budget spent

    config.deadline_us = 0.0;  // degenerate: every attempt is late
    EXPECT_TRUE(aq::needs_retx(config, /*bits_ok=*/true, /*attempt=*/0));
    EXPECT_FALSE(aq::needs_retx(config, /*bits_ok=*/true, /*attempt=*/1));

    config.max_retx = 0;  // open loop: never retransmit
    EXPECT_FALSE(aq::needs_retx(config, /*bits_ok=*/false, /*attempt=*/0));
}

// ---------------------------------------------------------------------------
// Counter arithmetic
// ---------------------------------------------------------------------------

TEST(ArqCounters, FoldsFrameChains) {
    aq::counters c;
    c.add_frame(/*attempts_used=*/1, /*wrong=*/0, /*first_ok=*/true, /*final_ok=*/true);
    c.add_frame(/*attempts_used=*/3, /*wrong=*/2, /*first_ok=*/false, /*final_ok=*/true);
    c.add_frame(/*attempts_used=*/3, /*wrong=*/3, /*first_ok=*/false, /*final_ok=*/false);

    EXPECT_EQ(c.frames, 3u);
    EXPECT_EQ(c.attempts, 7u);
    EXPECT_EQ(c.retransmissions(), 4u);
    EXPECT_EQ(c.wrong_attempts, 5u);
    EXPECT_EQ(c.corrected_frames, 1u);
    EXPECT_EQ(c.residual_errors, 1u);
    EXPECT_DOUBLE_EQ(c.residual_fer(), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(c.retx_rate(), 4.0 / 3.0);
    EXPECT_DOUBLE_EQ(c.mean_attempts(), 7.0 / 3.0);
    EXPECT_DOUBLE_EQ(c.attempt_error_rate(), 5.0 / 7.0);
}

TEST(ArqCounters, EmptyRatesAreZero) {
    const aq::counters c;
    EXPECT_DOUBLE_EQ(c.residual_fer(), 0.0);
    EXPECT_DOUBLE_EQ(c.retx_rate(), 0.0);
    EXPECT_DOUBLE_EQ(c.mean_attempts(), 0.0);
    EXPECT_DOUBLE_EQ(c.attempt_error_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// Closed-loop trace replay on deterministic stages
// ---------------------------------------------------------------------------

std::vector<pl::stage> two_constant_stages() {
    return {pl::stage::constant("a", 10.0), pl::stage::constant("b", 5.0)};
}

TEST(ArqClosedLoop, CleanChannelDeliversEverything) {
    hcq::util::rng rng(7);
    const auto report = aq::closed_loop_replay(two_constant_stages(), 50,
                                               /*attempt_error_rate=*/0.0, aq::no_deadline,
                                               /*max_retx=*/2, {.interarrival_us = 20.0}, rng,
                                               {.record_latencies = false});
    EXPECT_EQ(report.stats.frames, 50u);
    EXPECT_EQ(report.stats.injections, 50u);  // nothing ever retransmits
    EXPECT_EQ(report.stats.completions, 50u);
    EXPECT_EQ(report.stats.delivered, 50u);
    EXPECT_EQ(report.stats.deadline_misses, 0u);
    EXPECT_EQ(report.stats.retransmissions, 0u);
    EXPECT_EQ(report.stats.exhausted, 0u);
    EXPECT_DOUBLE_EQ(report.stats.miss_rate(), 0.0);
    EXPECT_DOUBLE_EQ(report.stats.undelivered_rate(), 0.0);
    EXPECT_DOUBLE_EQ(report.stats.goodput_per_us, report.replay.throughput_per_us);
}

TEST(ArqClosedLoop, AlwaysWrongExhaustsTheRetryBudget) {
    hcq::util::rng rng(7);
    const auto report = aq::closed_loop_replay(two_constant_stages(), 20,
                                               /*attempt_error_rate=*/1.0, aq::no_deadline,
                                               /*max_retx=*/2, {.interarrival_us = 50.0}, rng,
                                               {.record_latencies = false});
    // Every frame burns 1 + max_retx attempts and is never delivered.
    EXPECT_EQ(report.stats.injections, 20u * 3u);
    EXPECT_EQ(report.stats.completions, 20u * 3u);
    EXPECT_EQ(report.stats.retransmissions, 20u * 2u);
    EXPECT_EQ(report.stats.delivered, 0u);
    EXPECT_EQ(report.stats.exhausted, 20u);
    EXPECT_DOUBLE_EQ(report.stats.goodput_per_us, 0.0);
    EXPECT_DOUBLE_EQ(report.stats.undelivered_rate(), 1.0);
}

TEST(ArqClosedLoop, DeadlineZeroMissesEveryCompletion) {
    hcq::util::rng rng(7);
    const auto report = aq::closed_loop_replay(two_constant_stages(), 20,
                                               /*attempt_error_rate=*/0.0, /*deadline=*/0.0,
                                               /*max_retx=*/1, {.interarrival_us = 50.0}, rng,
                                               {.record_latencies = false});
    EXPECT_EQ(report.stats.injections, 20u * 2u);
    EXPECT_EQ(report.stats.deadline_misses, report.stats.completions);
    EXPECT_DOUBLE_EQ(report.stats.miss_rate(), 1.0);
    EXPECT_EQ(report.stats.delivered, 0u);
    EXPECT_EQ(report.stats.exhausted, 20u);
}

TEST(ArqClosedLoop, TightDeadlineBelowServiceTimeMissesEverything) {
    // Service is 15 us end to end, the deadline 12 us: every attempt is
    // late even with empty queues.
    hcq::util::rng rng(7);
    const auto report = aq::closed_loop_replay(two_constant_stages(), 10,
                                               /*attempt_error_rate=*/0.0, /*deadline=*/12.0,
                                               /*max_retx=*/1, {.interarrival_us = 100.0}, rng,
                                               {.record_latencies = false});
    EXPECT_EQ(report.stats.delivered, 0u);
    EXPECT_EQ(report.stats.injections, 20u);
    EXPECT_DOUBLE_EQ(report.stats.miss_rate(), 1.0);
}

TEST(ArqClosedLoop, RetransmissionLoadAmplifiesQueueing) {
    // At an offered load near saturation, a lossy channel's retransmissions
    // must push the closed-loop p99 latency past the open loop's.
    hcq::util::rng rng_open(7);
    const auto open = aq::closed_loop_replay(two_constant_stages(), 200,
                                             /*attempt_error_rate=*/0.0, aq::no_deadline,
                                             /*max_retx=*/3, {.interarrival_us = 11.0},
                                             rng_open, {.record_latencies = false});
    hcq::util::rng rng_lossy(7);
    const auto lossy = aq::closed_loop_replay(two_constant_stages(), 200,
                                              /*attempt_error_rate=*/0.5, aq::no_deadline,
                                              /*max_retx=*/3, {.interarrival_us = 11.0},
                                              rng_lossy, {.record_latencies = false});
    EXPECT_GT(lossy.replay.num_jobs, open.replay.num_jobs);
    EXPECT_GT(lossy.replay.p99_latency_us, open.replay.p99_latency_us);
}

TEST(ArqClosedLoop, RejectsBadArguments) {
    hcq::util::rng rng(7);
    EXPECT_THROW((void)aq::closed_loop_replay(two_constant_stages(), 10, -0.1, aq::no_deadline,
                                              1, {.interarrival_us = 10.0}, rng, {}),
                 std::invalid_argument);
    EXPECT_THROW((void)aq::closed_loop_replay(two_constant_stages(), 10, 1.5, aq::no_deadline,
                                              1, {.interarrival_us = 10.0}, rng, {}),
                 std::invalid_argument);
    EXPECT_THROW((void)aq::closed_loop_replay(two_constant_stages(), 10, 0.0, -1.0, 1,
                                              {.interarrival_us = 10.0}, rng, {}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Link integration — the acceptance-criteria edge cases
// ---------------------------------------------------------------------------

lk::link_config noisy_config() {
    // Noisy enough that every path sees frame errors, so the ARQ loop has
    // real work on a small stream.
    lk::link_config config;
    config.num_uses = 24;
    config.num_users = 4;
    config.mod = wl::modulation::qam16;
    config.snr_db = 13.0;
    config.paths = pt::parse_spec_list("zf,sa:reads=3,sweeps=30,gsra:reads=8");
    config.seed = 2026;
    config.num_threads = 1;
    return config;
}

TEST(LinkArq, MaxRetxZeroEqualsOpenLoopBitForBit) {
    auto config = noisy_config();
    const auto open = lk::run_link_simulation(config);
    config.arq = aq::parse_arq("max_retx=0");
    const auto arq = lk::run_link_simulation(config);

    ASSERT_EQ(arq.paths.size(), open.paths.size());
    for (std::size_t p = 0; p < open.paths.size(); ++p) {
        SCOPED_TRACE(open.paths[p].name);
        // The open-loop statistics are untouched by enabling ARQ...
        EXPECT_EQ(arq.paths[p].ber.errors(), open.paths[p].ber.errors());
        EXPECT_EQ(arq.paths[p].ber.total_bits(), open.paths[p].ber.total_bits());
        EXPECT_EQ(arq.paths[p].exact_frames, open.paths[p].exact_frames);
        EXPECT_EQ(arq.paths[p].sum_ml_cost, open.paths[p].sum_ml_cost);
        // ...and with no retries allowed the ARQ counters ARE the open loop.
        ASSERT_TRUE(arq.paths[p].arq.has_value());
        const auto& counters = arq.paths[p].arq->counters;
        EXPECT_EQ(counters.frames, config.num_uses);
        EXPECT_EQ(counters.attempts, config.num_uses);
        EXPECT_EQ(counters.retransmissions(), 0u);
        EXPECT_EQ(counters.corrected_frames, 0u);
        EXPECT_EQ(counters.residual_errors, config.num_uses - open.paths[p].exact_frames);
        EXPECT_EQ(arq.paths[p].arq->retx_service.count(), 0u);
        EXPECT_FALSE(open.paths[p].arq.has_value());
    }
}

TEST(LinkArq, HandBuiltMaxRetxAboveTheBoundIsRejected) {
    // The link sizes each worker's buffers to max_retx + 1 attempts, so a
    // hand-built config past arq::max_retx_limit (here one whose attempt
    // count would wrap to 0) is refused before anything is sized.
    auto config = noisy_config();
    config.arq = aq::arq_config{};
    config.arq->max_retx = SIZE_MAX;
    EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
    config.arq->max_retx = aq::max_retx_limit + 1;
    EXPECT_THROW((void)lk::run_link_simulation(config), std::invalid_argument);
}

TEST(LinkArq, DeadlineZeroRetransmitsEveryFrameUntilMaxRetx) {
    auto config = noisy_config();
    config.arq = aq::parse_arq("deadline_us=0,max_retx=2");
    const auto report = lk::run_link_simulation(config);
    for (const auto& path : report.paths) {
        SCOPED_TRACE(path.name);
        const auto& ar = *path.arq;
        // Every frame is "late" by definition: the full retry budget burns.
        EXPECT_EQ(ar.counters.attempts, config.num_uses * 3);
        EXPECT_EQ(ar.counters.retransmissions(), config.num_uses * 2);
        EXPECT_EQ(ar.retx_service.count(), config.num_uses * 2);
        // Nothing ever meets a zero deadline in the closed-loop replay.
        EXPECT_EQ(ar.replay_stats.delivered, 0u);
        EXPECT_DOUBLE_EQ(ar.replay_stats.miss_rate(), 1.0);
        EXPECT_DOUBLE_EQ(ar.replay_stats.goodput_per_us, 0.0);
    }
}

TEST(LinkArq, CountersBitIdenticalAcrossThreadsAndStreamBlocks) {
    auto config = noisy_config();
    config.arq = aq::parse_arq("deadline_us=auto,max_retx=2");
    config.num_threads = 1;
    config.stream_block = 1024;
    const auto reference = lk::run_link_simulation(config);

    for (const std::size_t threads : {2UL, 8UL}) {
        for (const std::size_t block : {3UL, 8UL, 1024UL}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, block " + std::to_string(block));
            config.num_threads = threads;
            config.stream_block = block;
            const auto run = lk::run_link_simulation(config);
            ASSERT_EQ(run.paths.size(), reference.paths.size());
            for (std::size_t p = 0; p < reference.paths.size(); ++p) {
                SCOPED_TRACE(reference.paths[p].name);
                const auto& want = reference.paths[p].arq->counters;
                const auto& got = run.paths[p].arq->counters;
                EXPECT_EQ(got.frames, want.frames);
                EXPECT_EQ(got.attempts, want.attempts);
                EXPECT_EQ(got.wrong_attempts, want.wrong_attempts);
                EXPECT_EQ(got.corrected_frames, want.corrected_frames);
                EXPECT_EQ(got.residual_errors, want.residual_errors);
                EXPECT_EQ(run.paths[p].arq->retx_service.count(),
                          reference.paths[p].arq->retx_service.count());
            }
        }
    }
}

TEST(LinkArq, RetransmissionsReduceResidualErrors) {
    auto config = noisy_config();
    config.arq = aq::parse_arq("max_retx=2");
    const auto report = lk::run_link_simulation(config);
    for (const auto& path : report.paths) {
        SCOPED_TRACE(path.name);
        const auto& c = path.arq->counters;
        const std::uint64_t open_loop_errors = config.num_uses - path.exact_frames;
        ASSERT_GT(open_loop_errors, 0u) << "scenario must produce frame errors";
        // Error-driven ARQ can only help: frames recover or stay wrong.
        EXPECT_LE(c.residual_errors, open_loop_errors);
        EXPECT_EQ(c.corrected_frames, open_loop_errors - c.residual_errors);
        EXPECT_GT(c.corrected_frames, 0u);
        // Retransmissions happen only for wrong frames here (no deadline).
        EXPECT_GE(c.retransmissions(), open_loop_errors);
        EXPECT_LE(c.retransmissions(), open_loop_errors * 2);
        EXPECT_EQ(c.attempt_error_rate(),
                  static_cast<double>(c.wrong_attempts) / static_cast<double>(c.attempts));
    }
}

TEST(LinkArq, AutoDeadlineResolvesToOpenLoopReplayP99) {
    auto config = noisy_config();
    config.paths = pt::parse_spec_list("gsra:reads=8");
    config.arq = aq::parse_arq("deadline_us=auto,max_retx=1");
    const auto report = lk::run_link_simulation(config);
    const auto& path = report.paths[0];
    EXPECT_DOUBLE_EQ(path.arq->replay_stats.resolved_deadline_us,
                     path.replay.p99_latency_us);
}

TEST(LinkArq, SummaryTableGainsArqColumns) {
    auto config = noisy_config();
    config.paths = pt::parse_spec_list("zf,gsra:reads=8");
    config.arq = aq::parse_arq("max_retx=1");
    const auto report = lk::run_link_simulation(config);
    const auto t = lk::summary_table(report);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 17u);  // 13 open-loop + resid FER/retx/miss/goodput
}

TEST(LinkArq, ClosedReplayAccountingIsConsistent) {
    auto config = noisy_config();
    config.arq = aq::parse_arq("deadline_us=auto,max_retx=2");
    const auto report = lk::run_link_simulation(config);
    for (const auto& path : report.paths) {
        SCOPED_TRACE(path.name);
        const auto& ar = *path.arq;
        const auto& stats = ar.replay_stats;
        EXPECT_EQ(stats.frames, config.num_uses);
        EXPECT_EQ(stats.injections, ar.closed_replay.num_jobs);
        EXPECT_EQ(stats.injections, stats.frames + stats.retransmissions);
        EXPECT_EQ(stats.completions, ar.closed_replay.jobs_completed);
        EXPECT_EQ(stats.completions + stats.lost_to_drops, stats.injections);
        // Every offered frame ends exactly one way.
        EXPECT_EQ(stats.delivered + stats.exhausted + stats.lost_to_drops, stats.frames);
    }
}

}  // namespace
