// Tests for the Figure-2 pipeline simulator (tandem queue of classical and
// quantum stages).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "metrics/stats.h"
#include "pipeline/pipeline.h"
#include "util/rng.h"

namespace {

namespace pl = hcq::pipeline;

/// Reference for single-server stages whose buffers never fill: the tandem
/// recurrence start = max(ready, free), done = start + service, with job j
/// served in trace[j % size] at every stage and arrivals every
/// `interarrival_us`, accumulated the way simulate() accumulates them.
struct reference_run {
    std::vector<double> latencies_us;
    hcq::metrics::running_stats latency;  ///< over latencies_us, in exit order
    double makespan_us = 0.0;
    std::vector<double> wait_us;  ///< per stage, summed over jobs
    std::vector<double> busy_us;  ///< per stage
};

reference_run reference_tandem(const std::vector<std::vector<double>>& traces,
                               std::size_t num_jobs, double interarrival_us) {
    reference_run r;
    r.wait_us.assign(traces.size(), 0.0);
    r.busy_us.assign(traces.size(), 0.0);
    std::vector<double> free(traces.size(), 0.0);
    double arrival = 0.0;
    for (std::size_t j = 0; j < num_jobs; ++j) {
        if (j > 0) arrival += interarrival_us;
        double ready = arrival;
        for (std::size_t s = 0; s < traces.size(); ++s) {
            const double start = std::max(ready, free[s]);
            const double service = traces[s][j % traces[s].size()];
            r.wait_us[s] += start - ready;
            r.busy_us[s] += service;
            ready = free[s] = start + service;
        }
        r.latencies_us.push_back(ready - arrival);
        r.latency.add(ready - arrival);
        r.makespan_us = std::max(r.makespan_us, ready);
    }
    return r;
}

TEST(Stage, ConstantServiceTime) {
    hcq::util::rng rng(1);
    const auto s = pl::stage::constant("c", 5.0);
    EXPECT_EQ(s.name(), "c");
    EXPECT_DOUBLE_EQ(s.service_us(0, rng), 5.0);
    EXPECT_DOUBLE_EQ(s.service_us(99, rng), 5.0);
    EXPECT_THROW((void)pl::stage::constant("bad", -1.0), std::invalid_argument);
}

TEST(Stage, LognormalPositiveAndSpread) {
    hcq::util::rng rng(2);
    const auto s = pl::stage::lognormal("ln", 10.0, 0.5);
    double lo = 1e300;
    double hi = 0.0;
    for (int i = 0; i < 200; ++i) {
        const double v = s.service_us(i, rng);
        EXPECT_GT(v, 0.0);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_LT(lo, 10.0);
    EXPECT_GT(hi, 10.0);
    EXPECT_THROW((void)pl::stage::lognormal("bad", 0.0, 0.5), std::invalid_argument);
}

TEST(Simulate, SingleJobLatencyIsSumOfServices) {
    hcq::util::rng rng(3);
    const std::vector<pl::stage> stages{pl::stage::constant("a", 2.0),
                                        pl::stage::constant("b", 3.0)};
    const auto result = pl::simulate(stages, 1, {.interarrival_us = 10.0}, rng);
    EXPECT_EQ(result.num_jobs, 1u);
    EXPECT_DOUBLE_EQ(result.mean_latency_us, 5.0);
    EXPECT_DOUBLE_EQ(result.makespan_us, 5.0);
}

TEST(Simulate, ThroughputLimitedByBottleneck) {
    hcq::util::rng rng(4);
    const std::vector<pl::stage> stages{pl::stage::constant("fast", 1.0),
                                        pl::stage::constant("slow", 8.0)};
    // Arrivals far faster than the bottleneck: throughput -> 1/8 per us.
    const auto result = pl::simulate(stages, 400, {.interarrival_us = 0.5}, rng);
    EXPECT_NEAR(result.throughput_per_us, 1.0 / 8.0, 0.01);
    // The bottleneck stage saturates.
    EXPECT_GT(result.stage_utilization[1], 0.95);
    EXPECT_LT(result.stage_utilization[0], 0.2);
}

TEST(Simulate, NoQueueingWhenArrivalsAreSlow) {
    hcq::util::rng rng(5);
    const std::vector<pl::stage> stages{pl::stage::constant("a", 1.0),
                                        pl::stage::constant("b", 2.0)};
    const auto result = pl::simulate(stages, 100, {.interarrival_us = 10.0}, rng);
    EXPECT_NEAR(result.mean_latency_us, 3.0, 1e-9);
    EXPECT_NEAR(result.mean_queue_wait_us[0], 0.0, 1e-9);
    EXPECT_NEAR(result.mean_queue_wait_us[1], 0.0, 1e-9);
    EXPECT_NEAR(result.p99_latency_us, 3.0, 1e-9);
}

TEST(Simulate, QueueBuildsWhenOverloaded) {
    hcq::util::rng rng(6);
    const std::vector<pl::stage> stages{pl::stage::constant("only", 2.0)};
    const auto result = pl::simulate(stages, 50, {.interarrival_us = 1.0}, rng);
    // Job j waits ~ j * (2 - 1) us: latency grows with position.
    EXPECT_GT(result.max_latency_us, 40.0);
    EXPECT_GT(result.mean_queue_wait_us[0], 10.0);
}

TEST(Simulate, PipeliningOverlapsStages) {
    // Two balanced stages of 2 us each: pipelined completion of n jobs takes
    // ~ 2n + 2, not 4n — the essence of Figure 2.
    hcq::util::rng rng(7);
    const std::vector<pl::stage> stages{pl::stage::constant("cl", 2.0),
                                        pl::stage::constant("qu", 2.0)};
    const auto result = pl::simulate(stages, 100, {.interarrival_us = 0.01}, rng);
    EXPECT_LT(result.makespan_us, 100 * 2.0 + 10.0);
    EXPECT_GT(result.makespan_us, 100 * 2.0 - 10.0);
}

TEST(Simulate, LatencyPercentilesOrdered) {
    hcq::util::rng rng(8);
    const std::vector<pl::stage> stages{pl::stage::lognormal("jitter", 3.0, 0.8)};
    const auto result = pl::simulate(stages, 300, {.interarrival_us = 4.0}, rng);
    EXPECT_LE(result.p50_latency_us, result.p99_latency_us);
    EXPECT_LE(result.p99_latency_us, result.max_latency_us + 1e-12);
    EXPECT_EQ(result.latencies_us.size(), 300u);
}

TEST(Simulate, PoissonArrivalsProduceVariableLatency) {
    hcq::util::rng rng(9);
    const std::vector<pl::stage> stages{pl::stage::constant("s", 1.0)};
    const auto result =
        pl::simulate(stages, 500, {.interarrival_us = 1.2, .poisson = true}, rng);
    // With utilisation ~0.83 there must be queueing some of the time.
    EXPECT_GT(result.p99_latency_us, result.p50_latency_us);
}

TEST(Simulate, Validation) {
    hcq::util::rng rng(10);
    EXPECT_THROW((void)pl::simulate({}, 10, {.interarrival_us = 1.0}, rng),
                 std::invalid_argument);
    const std::vector<pl::stage> stages{pl::stage::constant("s", 1.0)};
    EXPECT_THROW((void)pl::simulate(stages, 0, {.interarrival_us = 1.0}, rng),
                 std::invalid_argument);
    EXPECT_THROW((void)pl::simulate(stages, 10, {.interarrival_us = 0.0}, rng),
                 std::invalid_argument);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW((void)pl::simulate(stages, 10, {.interarrival_us = bad}, rng),
                     std::invalid_argument);
    }
}

TEST(Simulate, UtilizationBounded) {
    hcq::util::rng rng(11);
    const std::vector<pl::stage> stages{pl::stage::constant("a", 1.0),
                                        pl::stage::constant("b", 2.0),
                                        pl::stage::constant("c", 0.5)};
    const auto result = pl::simulate(stages, 200, {.interarrival_us = 2.5}, rng);
    for (const double u : result.stage_utilization) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0 + 1e-9);
    }
}

TEST(HybridStages, BuilderComposesTimes) {
    const auto stages = pl::make_hybrid_stages(3.0, 2.2, 10, 1.5);
    ASSERT_EQ(stages.size(), 2u);
    hcq::util::rng rng(12);
    EXPECT_DOUBLE_EQ(stages[0].service_us(0, rng), 3.0);
    EXPECT_DOUBLE_EQ(stages[1].service_us(0, rng), 1.5 + 22.0);
    EXPECT_EQ(stages[0].name(), "classical");
    EXPECT_EQ(stages[1].name(), "quantum");
    EXPECT_THROW((void)pl::make_hybrid_stages(1.0, 0.0, 10), std::invalid_argument);
    EXPECT_THROW((void)pl::make_hybrid_stages(1.0, 1.0, 0), std::invalid_argument);
}

TEST(Stage, FromTraceReplaysAndCycles) {
    hcq::util::rng rng(20);
    const auto s = pl::stage::from_trace("measured", {1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(s.service_us(0, rng), 1.0);
    EXPECT_DOUBLE_EQ(s.service_us(1, rng), 2.0);
    EXPECT_DOUBLE_EQ(s.service_us(2, rng), 3.0);
    EXPECT_DOUBLE_EQ(s.service_us(3, rng), 1.0);  // cycles past the trace end
    EXPECT_DOUBLE_EQ(s.service_us(7, rng), 2.0);
}

TEST(Stage, FromTraceValidation) {
    EXPECT_THROW((void)pl::stage::from_trace("empty", {}), std::invalid_argument);
    EXPECT_THROW((void)pl::stage::from_trace("neg", {1.0, -0.5}), std::invalid_argument);
    EXPECT_THROW((void)pl::stage::from_trace("inf", {1.0, 1.0 / 0.0}), std::invalid_argument);
}

TEST(Simulate, MeasuredTraceMatchesHandComputedLatency) {
    // Two measured stages with slow arrivals: latency of job j is exactly
    // trace_a[j] + trace_b[j].
    hcq::util::rng rng(21);
    const std::vector<pl::stage> stages{pl::stage::from_trace("a", {1.0, 2.0}),
                                        pl::stage::from_trace("b", {4.0, 3.0})};
    const auto result = pl::simulate(stages, 2, {.interarrival_us = 100.0}, rng);
    ASSERT_EQ(result.latencies_us.size(), 2u);
    EXPECT_DOUBLE_EQ(result.latencies_us[0], 5.0);
    EXPECT_DOUBLE_EQ(result.latencies_us[1], 5.0);
}

TEST(SummaryTable, ShapeAndStageLabels) {
    hcq::util::rng rng(22);
    const std::vector<pl::stage> stages{pl::stage::constant("cl", 1.0),
                                        pl::stage::constant("qu", 2.0)};
    const auto result = pl::simulate(stages, 50, {.interarrival_us = 4.0}, rng);
    // 10 headline metrics + 5 rows (utilisation, queue wait, mean/max
    // occupancy, drops) per stage.
    const auto named = pl::summary_table(result, {"cl", "qu"});
    EXPECT_EQ(named.columns(), 2u);
    EXPECT_EQ(named.rows(), 10u + 5u * stages.size());
    const auto numbered = pl::summary_table(result);
    EXPECT_EQ(numbered.rows(), named.rows());
    EXPECT_THROW((void)pl::summary_table(result, {"only-one"}), std::invalid_argument);
}

TEST(HybridStages, EndToEndHybridPipelineRuns) {
    hcq::util::rng rng(13);
    // Classical 1 us, quantum = 5 reads x 2.18 us (RA at s_p = 0.41).
    const auto stages = pl::make_hybrid_stages(1.0, 2.18, 5);
    const auto result = pl::simulate(stages, 200, {.interarrival_us = 12.0}, rng);
    EXPECT_NEAR(result.mean_latency_us, 1.0 + 5 * 2.18, 1e-6);
    EXPECT_GT(result.stage_utilization[1], result.stage_utilization[0]);
}

// ---------------------------------------------------------------------------
// Bounded buffers, backpressure policies, multi-server stages
// ---------------------------------------------------------------------------

TEST(Backpressure, NamesRoundTrip) {
    for (const auto policy : {pl::backpressure::block, pl::backpressure::drop_oldest,
                              pl::backpressure::drop_newest}) {
        EXPECT_EQ(pl::parse_backpressure(pl::to_string(policy)), policy);
    }
    EXPECT_THROW((void)pl::parse_backpressure("drop-random"), std::invalid_argument);
}

TEST(Bounded, CapacityZeroIsAConfigurationError) {
    // A zero-slot buffer could never admit a job, so it is rejected up
    // front instead of silently deadlocking or dropping the whole stream.
    hcq::util::rng rng(30);
    const std::vector<pl::stage> stages{pl::stage::constant("s", 1.0)};
    EXPECT_THROW((void)pl::simulate(stages, 10, {.interarrival_us = 1.0}, rng,
                                    {.buffer_capacity = 0}),
                 std::invalid_argument);
}

TEST(Bounded, AmpleCapacityMatchesUnboundedExactly) {
    // With more slots than jobs no buffer ever fills, so every policy (and
    // unbounded buffers) must reproduce the unbounded recurrence bit for bit.
    const std::vector<pl::stage> stages{pl::stage::from_trace("a", {1.0, 2.0, 0.5}),
                                        pl::stage::constant("b", 1.5)};
    const reference_run want = reference_tandem({{1.0, 2.0, 0.5}, {1.5}}, 60, 1.0);
    for (const std::size_t capacity : {pl::unbounded_capacity, std::size_t{1000}}) {
        for (const auto policy : {pl::backpressure::block, pl::backpressure::drop_oldest,
                                  pl::backpressure::drop_newest}) {
            SCOPED_TRACE(pl::to_string(policy));
            SCOPED_TRACE(capacity);
            hcq::util::rng rng(31);
            const auto bounded =
                pl::simulate(stages, 60, {.interarrival_us = 1.0}, rng,
                             {.buffer_capacity = capacity, .policy = policy});
            EXPECT_EQ(bounded.jobs_completed, 60u);
            EXPECT_EQ(bounded.jobs_dropped, 0u);
            EXPECT_DOUBLE_EQ(bounded.makespan_us, want.makespan_us);
            ASSERT_EQ(bounded.latencies_us.size(), want.latencies_us.size());
            for (std::size_t j = 0; j < bounded.latencies_us.size(); ++j) {
                EXPECT_DOUBLE_EQ(bounded.latencies_us[j], want.latencies_us[j]);
            }
            EXPECT_DOUBLE_EQ(bounded.mean_queue_wait_us[0], want.wait_us[0] / 60.0);
            EXPECT_DOUBLE_EQ(bounded.mean_queue_wait_us[1], want.wait_us[1] / 60.0);
        }
    }
}

TEST(Reference, RandomTieFreeTracesMatchTheRecurrenceExactly) {
    // Seeded random single-server chains of 1-4 stages with continuous
    // service times (so distinct events never share an instant), paced
    // below and above the bottleneck, under buffers that never fill: every
    // latency, the makespan and each stage's wait and utilisation equal the
    // recurrence's.
    constexpr std::size_t jobs = 150;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        hcq::util::rng gen(9000 + seed);
        const std::size_t num_stages = 1 + seed % 4;
        std::vector<std::vector<double>> traces(num_stages);
        std::vector<pl::stage> stages;
        double bottleneck_us = 0.0;
        for (std::size_t s = 0; s < num_stages; ++s) {
            traces[s].resize(1 + gen.uniform_index(8));
            double sum = 0.0;
            for (double& v : traces[s]) {
                v = 0.5 + 3.0 * gen.uniform();
                sum += v;
            }
            bottleneck_us = std::max(bottleneck_us, sum / static_cast<double>(traces[s].size()));
            stages.push_back(pl::stage::from_trace("s", traces[s]));
        }
        for (const double load : {0.7, 1.3}) {
            const double interarrival_us = bottleneck_us / load;
            const reference_run want = reference_tandem(traces, jobs, interarrival_us);
            for (const std::size_t capacity : {pl::unbounded_capacity, jobs}) {
                for (const auto policy : {pl::backpressure::block, pl::backpressure::drop_oldest,
                                          pl::backpressure::drop_newest}) {
                    SCOPED_TRACE(testing::Message() << "seed " << seed << " load " << load
                                                    << " capacity " << capacity << " "
                                                    << pl::to_string(policy));
                    hcq::util::rng rng(seed);
                    const auto got =
                        pl::simulate(stages, jobs, {.interarrival_us = interarrival_us}, rng,
                                     {.buffer_capacity = capacity, .policy = policy});
                    ASSERT_EQ(got.jobs_completed, jobs);
                    EXPECT_EQ(got.latencies_us, want.latencies_us);
                    EXPECT_EQ(got.makespan_us, want.makespan_us);
                    for (std::size_t s = 0; s < num_stages; ++s) {
                        EXPECT_EQ(got.mean_queue_wait_us[s],
                                  want.wait_us[s] / static_cast<double>(jobs));
                        EXPECT_EQ(got.stage_utilization[s], want.busy_us[s] / want.makespan_us);
                    }
                }
            }
        }
    }
}

TEST(Bounded, DropNewestHandComputed) {
    // One 2-us server, arrivals every 1 us, one waiting slot: once the slot
    // is taken, every other arrival finds it occupied and is discarded.
    hcq::util::rng rng(32);
    const std::vector<pl::stage> stages{pl::stage::constant("s", 2.0)};
    const auto result =
        pl::simulate(stages, 10, {.interarrival_us = 1.0}, rng,
                     {.buffer_capacity = 1, .policy = pl::backpressure::drop_newest});
    EXPECT_EQ(result.jobs_completed, 6u);  // jobs 0,1,2,4,6,8
    EXPECT_EQ(result.jobs_dropped, 4u);    // jobs 3,5,7,9
    EXPECT_DOUBLE_EQ(result.drop_rate, 0.4);
    EXPECT_EQ(result.stage_drops[0], 4u);
    EXPECT_DOUBLE_EQ(result.makespan_us, 12.0);
    const std::vector<double> want{2.0, 3.0, 4.0, 4.0, 4.0, 4.0};
    ASSERT_EQ(result.latencies_us.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_DOUBLE_EQ(result.latencies_us[j], want[j]);
    }
    EXPECT_EQ(result.max_queue_len[0], 1u);
}

TEST(Bounded, DropOldestHandComputed) {
    // Same offered load, but the newcomer evicts the waiting job: the
    // freshest work survives, so completed-job latency stays low.
    hcq::util::rng rng(33);
    const std::vector<pl::stage> stages{pl::stage::constant("s", 2.0)};
    const auto result =
        pl::simulate(stages, 10, {.interarrival_us = 1.0}, rng,
                     {.buffer_capacity = 1, .policy = pl::backpressure::drop_oldest});
    EXPECT_EQ(result.jobs_completed, 6u);  // jobs 0,1,3,5,7,9
    EXPECT_EQ(result.jobs_dropped, 4u);    // jobs 2,4,6,8 evicted while queued
    EXPECT_EQ(result.stage_drops[0], 4u);
    EXPECT_DOUBLE_EQ(result.makespan_us, 12.0);
    const std::vector<double> want{2.0, 3.0, 3.0, 3.0, 3.0, 3.0};
    ASSERT_EQ(result.latencies_us.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_DOUBLE_EQ(result.latencies_us[j], want[j]);
    }
    // Drop-oldest keeps the completed-job p99 below drop-newest's: the
    // queue never holds stale work.
    EXPECT_DOUBLE_EQ(result.p99_latency_us, 3.0);
}

TEST(Bounded, BlockPolicyNeverDropsAndBoundsTheQueue) {
    // Blocking backpressure: offered jobs wait at the entrance instead of
    // being dropped; the buffer never exceeds its capacity and admission
    // delay shows up as latency.
    hcq::util::rng rng(34);
    const std::vector<pl::stage> stages{pl::stage::constant("s", 2.0)};
    const auto result =
        pl::simulate(stages, 10, {.interarrival_us = 1.0}, rng,
                     {.buffer_capacity = 1, .policy = pl::backpressure::block});
    EXPECT_EQ(result.jobs_completed, 10u);
    EXPECT_EQ(result.jobs_dropped, 0u);
    EXPECT_DOUBLE_EQ(result.drop_rate, 0.0);
    EXPECT_DOUBLE_EQ(result.makespan_us, 20.0);  // server busy back to back
    EXPECT_LE(result.max_queue_len[0], 1u);
    // Job j starts at 2j and arrived at j: latency j + 2.
    ASSERT_EQ(result.latencies_us.size(), 10u);
    for (std::size_t j = 0; j < 10; ++j) {
        EXPECT_DOUBLE_EQ(result.latencies_us[j], static_cast<double>(j) + 2.0);
    }
}

TEST(Bounded, BlockingPropagatesUpstreamHandComputed) {
    // Two stages, one slot each: the 3-us bottleneck holds the 1-us
    // front-end, whose server must keep each finished job until the
    // downstream buffer admits it.  Departures settle into the bottleneck
    // period; every job survives.
    hcq::util::rng rng(35);
    const std::vector<pl::stage> stages{pl::stage::constant("a", 1.0),
                                        pl::stage::constant("b", 3.0)};
    const auto result =
        pl::simulate(stages, 6, {.interarrival_us = 0.5}, rng,
                     {.buffer_capacity = 1, .policy = pl::backpressure::block});
    EXPECT_EQ(result.jobs_completed, 6u);
    EXPECT_EQ(result.jobs_dropped, 0u);
    EXPECT_DOUBLE_EQ(result.makespan_us, 19.0);  // departures at 4,7,10,13,16,19
    const std::vector<double> want{4.0, 6.5, 9.0, 11.5, 14.0, 16.5};
    ASSERT_EQ(result.latencies_us.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_DOUBLE_EQ(result.latencies_us[j], want[j]);
    }
}

TEST(MultiServer, RoundRobinDoublesThroughput) {
    // One 2-us stage backed by two devices, fed every 1 us: the bank keeps
    // up exactly, so no job ever queues and every latency is the bare
    // service time.
    hcq::util::rng rng(36);
    const std::vector<pl::stage> stages{pl::stage::constant("bank", 2.0).with_servers(2)};
    const auto result = pl::simulate(stages, 100, {.interarrival_us = 1.0}, rng);
    EXPECT_NEAR(result.mean_latency_us, 2.0, 1e-12);
    EXPECT_NEAR(result.p99_latency_us, 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(result.makespan_us, 101.0);
    // Utilisation is measured against the bank's total capacity.
    EXPECT_NEAR(result.stage_utilization[0], 200.0 / (101.0 * 2.0), 1e-12);
    EXPECT_THROW((void)stages[0].with_servers(0), std::invalid_argument);
}

TEST(MultiServer, InOrderHandOffHoldsTheServerHandComputed) {
    // Two servers alternating 10-us and 1-us jobs, one arrival per us.  Job 1
    // finishes at 2 but leaves behind job 0 at 10, holding server 1 until
    // then; jobs 2 and 3 both start at 10 and job 3 leaves behind job 2 at 20.
    hcq::util::rng rng(39);
    const std::vector<pl::stage> stages{
        pl::stage::from_trace("bank", {10.0, 1.0}).with_servers(2)};
    const auto result = pl::simulate(stages, 4, {.interarrival_us = 1.0}, rng);
    EXPECT_EQ(result.latencies_us, (std::vector<double>{10.0, 9.0, 18.0, 17.0}));
    EXPECT_EQ(result.makespan_us, 20.0);
}

TEST(MultiServer, HybridBuilderReplicatesTheQuantumStage) {
    const auto stages = pl::make_hybrid_stages(3.0, 2.2, 10, 1.5, 4);
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_EQ(stages[0].servers(), 1u);
    EXPECT_EQ(stages[1].servers(), 4u);
    EXPECT_THROW((void)pl::make_hybrid_stages(1.0, 1.0, 1, 0.0, 0), std::invalid_argument);
}

TEST(Streaming, DigestPercentilesTrackExactOnesWithoutRecording) {
    const std::vector<pl::stage> stages{pl::stage::lognormal("jitter", 5.0, 0.6)};
    hcq::util::rng rng_exact(37);
    const auto exact = pl::simulate(stages, 800, {.interarrival_us = 6.0}, rng_exact);
    hcq::util::rng rng_stream(37);
    const auto streamed = pl::simulate(stages, 800, {.interarrival_us = 6.0}, rng_stream,
                                       {.record_latencies = false});
    EXPECT_TRUE(streamed.latencies_us.empty());
    EXPECT_FALSE(exact.latencies_us.empty());
    // Identical simulated timeline, so the digest percentiles must land
    // within the digest's ~0.4% bin resolution of the exact ones.
    EXPECT_DOUBLE_EQ(streamed.makespan_us, exact.makespan_us);
    EXPECT_NEAR(streamed.p50_latency_us, exact.p50_latency_us, 0.02 * exact.p50_latency_us);
    EXPECT_NEAR(streamed.p99_latency_us, exact.p99_latency_us, 0.02 * exact.p99_latency_us);
}

TEST(Bounded, OverloadedDropRunReportsOccupancy) {
    hcq::util::rng rng(38);
    const std::vector<pl::stage> stages{pl::stage::constant("a", 1.0),
                                        pl::stage::constant("b", 4.0)};
    const auto result =
        pl::simulate(stages, 400, {.interarrival_us = 1.0}, rng,
                     {.buffer_capacity = 8, .policy = pl::backpressure::drop_oldest,
                      .record_latencies = false});
    EXPECT_GT(result.jobs_dropped, 0u);
    EXPECT_EQ(result.jobs_completed + result.jobs_dropped, 400u);
    // Drops happen at the bottleneck's buffer, not the front-end's.
    EXPECT_EQ(result.stage_drops[0], 0u);
    EXPECT_GT(result.stage_drops[1], 0u);
    EXPECT_LE(result.max_queue_len[1], 8u);
    EXPECT_GT(result.mean_queue_len[1], result.mean_queue_len[0]);
    // The bottleneck never starves under sustained overload.
    EXPECT_GT(result.stage_utilization[1], 0.9);
}

// ---------------------------------------------------------------------------
// Closed-loop (feedback) simulation — ARQ re-entry.
// ---------------------------------------------------------------------------

TEST(ClosedLoop, NoFeedbackMatchesOpenLoopOnDeterministicStages) {
    // With an empty feedback hook and deterministic single-server stages the
    // replay must reproduce the open-loop recurrence exactly.
    const std::vector<pl::stage> stages{pl::stage::constant("a", 10.0),
                                        pl::stage::constant("b", 5.0)};
    for (const double interarrival : {6.0, 12.0}) {
        SCOPED_TRACE(interarrival);
        const reference_run open = reference_tandem({{10.0}, {5.0}}, 100, interarrival);
        hcq::util::rng rng_closed(1);
        const auto closed =
            pl::simulate(stages, 100, {.interarrival_us = interarrival}, rng_closed, {}, {});
        EXPECT_EQ(closed.num_jobs, 100u);
        EXPECT_EQ(closed.jobs_completed, 100u);
        EXPECT_DOUBLE_EQ(closed.makespan_us, open.makespan_us);
        EXPECT_DOUBLE_EQ(closed.mean_latency_us, open.latency.mean());
        EXPECT_DOUBLE_EQ(closed.max_latency_us, open.latency.max());
        ASSERT_EQ(closed.latencies_us.size(), open.latencies_us.size());
        for (std::size_t j = 0; j < open.latencies_us.size(); ++j) {
            EXPECT_DOUBLE_EQ(closed.latencies_us[j], open.latencies_us[j]);
        }
    }
}

TEST(ClosedLoop, FeedbackReentersAtCompletionTime) {
    // One constant stage, one frame, one retransmission: the retransmission
    // arrives when the first attempt completes, so it departs at 2 x service.
    const std::vector<pl::stage> stages{pl::stage::constant("s", 10.0)};
    hcq::util::rng rng(1);
    std::vector<pl::completion> seen;
    const auto result = pl::simulate(
        stages, 1, {.interarrival_us = 5.0}, rng, {},
        [&](const pl::completion& c) {
            seen.push_back(c);
            return c.attempt < 1;
        });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].attempt, 0u);
    EXPECT_DOUBLE_EQ(seen[0].done_us, 10.0);
    EXPECT_EQ(seen[1].attempt, 1u);
    EXPECT_DOUBLE_EQ(seen[1].injected_us, 10.0);  // re-entered at completion
    EXPECT_DOUBLE_EQ(seen[1].done_us, 20.0);
    EXPECT_DOUBLE_EQ(seen[1].latency_us(), 10.0);
    EXPECT_EQ(seen[1].frame, 0u);
    EXPECT_DOUBLE_EQ(seen[1].offered_us, 0.0);
    EXPECT_EQ(result.num_jobs, 2u);
    EXPECT_EQ(result.jobs_completed, 2u);
    EXPECT_DOUBLE_EQ(result.makespan_us, 20.0);
}

TEST(ClosedLoop, HeldArrivalAndRetransmissionTakeTheFirstSlotInTimeOrder) {
    // 3 us service, one slot, block, arrivals every 1 us, frame 0
    // retransmitted once.  f2 (arrived 2) is held at the source when r0
    // (injected 3) finds the slot taken, so the slot freed at 3 goes to f2;
    // f3 also arrives at 3, and the slot freed at 6 goes to r0 (a tie, the
    // retransmission first), then f3.  Exits: f0 at 3, f1 at 6, f2 at 9,
    // r0 at 12, f3 at 15.
    const std::vector<pl::stage> stages{pl::stage::constant("s", 3.0)};
    hcq::util::rng rng(1);
    std::vector<pl::completion> seen;
    const auto result = pl::simulate(
        stages, 4, {.interarrival_us = 1.0}, rng,
        {.buffer_capacity = 1, .policy = pl::backpressure::block},
        [&](const pl::completion& c) {
            seen.push_back(c);
            return c.frame == 0 && c.attempt == 0;
        });
    EXPECT_EQ(result.num_jobs, 5u);
    EXPECT_EQ(result.latencies_us, (std::vector<double>{3.0, 5.0, 7.0, 9.0, 12.0}));
    EXPECT_DOUBLE_EQ(result.makespan_us, 15.0);
    ASSERT_EQ(seen.size(), 5u);
    EXPECT_EQ(seen[3].frame, 0u);
    EXPECT_EQ(seen[3].attempt, 1u);
    EXPECT_DOUBLE_EQ(seen[3].injected_us, 3.0);
    EXPECT_EQ(seen[4].frame, 3u);
    EXPECT_DOUBLE_EQ(seen[4].injected_us, 3.0);  // latency counts from the arrival
}

TEST(ClosedLoop, ArrivalsTheSourceFellBehindOnPrecedeLaterRetransmissions) {
    // Two servers, one slot, block, arrivals every 1 us; services 3, 4, 0
    // repeating in service-start order; even frames retransmitted once.
    // At 5 both servers free: the first slot goes to f3 (held since 3), and
    // the second to f4 — it arrived at 4, while the source was held, so it
    // is held at once and still precedes r2 (injected 5).
    auto starts = std::make_shared<std::size_t>(0);
    const std::vector<pl::stage> stages{pl::stage(
        "seq",
        [starts](std::size_t, hcq::util::rng&) {
            constexpr double services[] = {3.0, 4.0, 0.0};
            return services[(*starts)++ % 3];
        },
        2)};
    hcq::util::rng rng(1);
    std::vector<std::pair<std::size_t, std::size_t>> exits;  // (frame, attempt)
    const auto result = pl::simulate(
        stages, 5, {.interarrival_us = 1.0}, rng,
        {.buffer_capacity = 1, .policy = pl::backpressure::block},
        [&](const pl::completion& c) {
            exits.emplace_back(c.frame, c.attempt);
            return c.attempt == 0 && c.frame % 2 == 0;
        });
    const std::vector<std::pair<std::size_t, std::size_t>> want_exits{
        {0, 0}, {1, 0}, {2, 0}, {0, 1}, {3, 0}, {4, 0}, {2, 1}, {4, 1}};
    EXPECT_EQ(exits, want_exits);
    EXPECT_EQ(result.latencies_us,
              (std::vector<double>{3.0, 4.0, 3.0, 5.0, 6.0, 5.0, 7.0, 4.0}));
    EXPECT_DOUBLE_EQ(result.makespan_us, 13.0);
}

TEST(ClosedLoop, RetransmissionsCompeteWithFreshArrivals) {
    // Two frames 1 us apart, 10 us service, every frame retransmitted once:
    // the four traversals serialise on the single server -> makespan 40.
    const std::vector<pl::stage> stages{pl::stage::constant("s", 10.0)};
    hcq::util::rng rng(1);
    const auto result = pl::simulate(
        stages, 2, {.interarrival_us = 1.0}, rng, {},
        [](const pl::completion& c) { return c.attempt < 1; });
    EXPECT_EQ(result.num_jobs, 4u);
    EXPECT_EQ(result.jobs_completed, 4u);
    EXPECT_DOUBLE_EQ(result.makespan_us, 40.0);
}

TEST(ClosedLoop, BlockPolicyNeverDropsUnderFeedbackOverload) {
    const std::vector<pl::stage> stages{pl::stage::constant("a", 4.0),
                                        pl::stage::constant("b", 8.0)};
    hcq::util::rng rng(1);
    const pl::sim_options options{.buffer_capacity = 1,
                                  .policy = pl::backpressure::block,
                                  .record_latencies = false};
    const auto result = pl::simulate(
        stages, 60, {.interarrival_us = 2.0}, rng, options,
        [](const pl::completion& c) { return c.attempt < 2; });
    EXPECT_EQ(result.num_jobs, 60u * 3u);
    EXPECT_EQ(result.jobs_completed, 60u * 3u);
    EXPECT_EQ(result.jobs_dropped, 0u);
    for (const std::size_t d : result.stage_drops) EXPECT_EQ(d, 0u);
    for (const std::size_t q : result.max_queue_len) EXPECT_LE(q, 1u);
}

TEST(ClosedLoop, DropOldestShedsRetransmissionOverload) {
    // Saturating offered load plus aggressive feedback: the bounded buffer
    // must shed, and the accounting must balance injections exactly.
    const std::vector<pl::stage> stages{pl::stage::constant("a", 4.0),
                                        pl::stage::constant("b", 8.0)};
    hcq::util::rng rng(1);
    const pl::sim_options options{.buffer_capacity = 2,
                                  .policy = pl::backpressure::drop_oldest,
                                  .record_latencies = false};
    const auto result = pl::simulate(
        stages, 100, {.interarrival_us = 3.0}, rng, options,
        [](const pl::completion& c) { return c.attempt < 2; });
    EXPECT_GT(result.jobs_dropped, 0u);
    EXPECT_EQ(result.jobs_completed + result.jobs_dropped, result.num_jobs);
    std::size_t stage_drop_sum = 0;
    for (const std::size_t d : result.stage_drops) stage_drop_sum += d;
    EXPECT_EQ(stage_drop_sum, result.jobs_dropped);
    for (const std::size_t q : result.max_queue_len) EXPECT_LE(q, 2u);
}

TEST(ClosedLoop, MultiServerStageServesRetransmissions) {
    // A 2-server bottleneck drains a retransmitting stream about twice as
    // fast as one server.
    const auto one = std::vector<pl::stage>{pl::stage::constant("q", 10.0)};
    const auto two = std::vector<pl::stage>{pl::stage::constant("q", 10.0).with_servers(2)};
    const auto feedback = [](const pl::completion& c) { return c.attempt < 1; };
    hcq::util::rng rng1(1);
    const auto serial = pl::simulate(one, 50, {.interarrival_us = 1.0}, rng1, {},
                                                 feedback);
    hcq::util::rng rng2(1);
    const auto banked = pl::simulate(two, 50, {.interarrival_us = 1.0}, rng2, {},
                                                 feedback);
    EXPECT_EQ(serial.jobs_completed, 100u);
    EXPECT_EQ(banked.jobs_completed, 100u);
    EXPECT_NEAR(banked.makespan_us, serial.makespan_us / 2.0, 15.0);
    EXPECT_GT(banked.throughput_per_us, 1.8 * serial.throughput_per_us);
}

TEST(ClosedLoop, ValidatesLikeTheOpenLoop) {
    hcq::util::rng rng(1);
    const std::vector<pl::stage> stages{pl::stage::constant("s", 1.0)};
    EXPECT_THROW((void)pl::simulate({}, 5, {}, rng, {}, {}),
                 std::invalid_argument);
    EXPECT_THROW((void)pl::simulate(stages, 0, {}, rng, {}, {}),
                 std::invalid_argument);
    EXPECT_THROW((void)pl::simulate(stages, 5, {.interarrival_us = 0.0}, rng, {},
                                                {}),
                 std::invalid_argument);
    EXPECT_THROW((void)pl::simulate(stages, 5, {}, rng,
                                                {.buffer_capacity = 0}, {}),
                 std::invalid_argument);
}

}  // namespace
