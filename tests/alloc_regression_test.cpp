// Steady-state allocation regression gate for the workspace hot path.
//
// Replaces global operator new with a counting wrapper, warms a per-worker
// workspace up on a handful of channel uses, then pins the invariant the
// redesign promises: once warm, a full use — QUBO reduction (where the path
// needs one) plus detection/solve through run_block — performs ZERO heap
// allocations, for a linear path (zf), the sweep solvers (sa, pt), and the
// hybrid (gsra, greedy-, tabu- and K-best-seeded), even as the channel
// content changes use to use; so does the soft output, linear (zf, mmse)
// and flip recost (kbest, gsra).  Link-level cases extend the gate to the ARQ
// retransmission chain and to the coded (FEC) frame chain, and a memory
// case pins that an overloaded block-policy replay holds memory set by its
// buffers, not by the number of jobs.
//
// This suite must NOT run under ASan/TSan (the sanitizers interpose their
// own allocator); scripts/verify.sh builds only its named suites for the
// sanitizer jobs, so keeping this file out of those lists is sufficient.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "arq/arq.h"
#include "detect/transform.h"
#include "fec/code_spec.h"
#include "link/link_sim.h"
#include "paths/detection_path.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "pipeline/pipeline.h"
#include "util/rng.h"
#include "wireless/channel_spec.h"
#include "wireless/mimo.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

}  // namespace

// Counting wrappers for every replaceable allocation form the library can
// reach (plain, aligned, array): calls and requested bytes.  Deallocation is
// not counted: the gate is about acquiring memory on the hot path.
void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) - 1) &
                                         ~(static_cast<std::size_t>(align) - 1))) {
        return p;
    }
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

namespace pt = hcq::paths;
namespace wl = hcq::wireless;
namespace dt = hcq::detect;

/// Runs `spec` over rotating channel instances with one warm workspace and
/// returns the allocation count of the steady-state phase.  `soft` adds
/// the soft_output call after each run_block.
std::uint64_t steady_state_allocations(const char* spec, bool soft = false) {
    const auto path = pt::registry::make(std::string(spec));
    const bool needs_qubo = path->needs_qubo();

    wl::mimo_config mimo;
    mimo.mod = wl::modulation::qam16;
    mimo.num_users = 4;
    mimo.num_antennas = 4;
    mimo.noise_variance = wl::noise_variance_for_snr(mimo.mod, 4, 16.0);

    // Distinct channel contents so the steady-state phase also exercises
    // decomposition-cache misses (restores into warm buffers, not allocs).
    hcq::util::rng synth_rng(7);
    std::vector<wl::mimo_instance> instances(4);
    for (auto& instance : instances) wl::synthesize_into(synth_rng, mimo, instance);

    pt::workspace ws;
    dt::ml_qubo mq;
    pt::path_result cell;
    hcq::util::rng solve_base(9);
    std::uint64_t use = 0;

    const auto run_use = [&](const wl::mimo_instance& instance) {
        if (needs_qubo) dt::ml_to_qubo_into(instance, ws.detect.qubo, mq);
        hcq::util::rng solve_rng = solve_base.derive(use++);
        const pt::path_context ctx{instance, needs_qubo ? &mq : nullptr, solve_rng, &ws};
        path->run_block(std::span<const pt::path_context>(&ctx, 1),
                        std::span<pt::path_result>(&cell, 1));
        if (soft) path->soft_output(ctx, cell);
    };

    // Warm-up: two full passes size every scratch buffer to its high-water
    // mark (solver reads, cache slots, result vectors).
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto& instance : instances) run_use(instance);
    }

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int pass = 0; pass < 3; ++pass) {
        for (const auto& instance : instances) run_use(instance);
    }
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocRegression, ZfSteadyStateIsAllocationFree) {
    EXPECT_EQ(steady_state_allocations("zf"), 0U);
}

TEST(AllocRegression, SaSteadyStateIsAllocationFree) {
    EXPECT_EQ(steady_state_allocations("sa:reads=4,sweeps=40"), 0U);
}

TEST(AllocRegression, PtSteadyStateIsAllocationFree) {
    // The replicas, the temperature ladder and the held state live in the
    // workspace's solve scratch; swapping replicas moves their buffers.
    EXPECT_EQ(steady_state_allocations("pt:replicas=4,rounds=10"), 0U);
}

TEST(AllocRegression, GsraSteadyStateIsAllocationFree) {
    EXPECT_EQ(steady_state_allocations("gsra:reads=4"), 0U);
}

TEST(AllocRegression, TabuSeededGsraSteadyStateIsAllocationFree) {
    EXPECT_EQ(steady_state_allocations("gsra:reads=4,init=tabu"), 0U);
}

TEST(AllocRegression, TreeSearchAndTabuSteadyStateIsAllocationFree) {
    for (const char* spec : {"kbest", "sphere", "sic", "fcsd", "tabu"}) {
        EXPECT_EQ(steady_state_allocations(spec), 0U) << spec;
    }
}

TEST(AllocRegression, KbestSeededGsraSteadyStateIsAllocationFree) {
    EXPECT_EQ(steady_state_allocations("gsra:reads=4,init=kbest"), 0U);
}

TEST(AllocRegression, LinearSoftOutputIsAllocationFree) {
    EXPECT_EQ(steady_state_allocations("zf", /*soft=*/true), 0U);
    EXPECT_EQ(steady_state_allocations("mmse", /*soft=*/true), 0U);
}

TEST(AllocRegression, FlipRecostSoftOutputIsAllocationFree) {
    // The single-bit-flip recost LLRs of the tree searches and the QUBO
    // paths: the recost word, symbols and residual live in the workspace.
    EXPECT_EQ(steady_state_allocations("kbest", /*soft=*/true), 0U);
    EXPECT_EQ(steady_state_allocations("gsra:reads=4", /*soft=*/true), 0U);
}

/// Heap allocations made by one run_link_simulation call.
std::uint64_t link_allocations(const hcq::link::link_config& config) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    (void)hcq::link::run_link_simulation(config);
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocRegression, OpenLoopLinkUsesAreAllocationFree) {
    // The uncoded open-loop link on the linear + tree bank and on the
    // tabu / GS+RA hybrid bank.  The window buffers match in both runs
    // (stream_block < n), so the longer run's extra allocations are per-use
    // cost: synthesis, reduction, every path's solve, the fold and the
    // replay.
    for (const char* bank : {"zf,mmse,kbest", "tabu,gsra:reads=8"}) {
        hcq::link::link_config config;
        config.num_users = 4;
        config.mod = wl::modulation::qam16;
        config.paths = pt::parse_spec_list(bank);
        config.num_threads = 1;
        config.stream_block = 256;
        constexpr std::size_t n = 512;
        config.num_uses = n;
        // One untimed run first: lazy statics cost one-time allocations.
        (void)link_allocations(config);
        const std::uint64_t short_run = link_allocations(config);
        config.num_uses = 2 * n;
        const std::uint64_t long_run = link_allocations(config);
        const double per_use =
            (static_cast<double>(long_run) - static_cast<double>(short_run)) /
            static_cast<double>(n);
        EXPECT_LT(per_use, 0.1) << bank;
    }
}

TEST(AllocRegression, RetransmissionsReuseWorkerScratch) {
    // deadline_us=0 retransmits every use max_retx = 2 times, so doubling
    // the stream from n to 2n uses adds 2n retransmissions.  The window
    // buffers are the same size in both runs (stream_block < n), so what
    // the longer run allocates extra is per-use and per-retransmission cost:
    // a retransmission must reuse the worker's instances and results,
    // and the closed-loop replay allocates nothing per job.
    hcq::link::link_config config;
    config.num_users = 4;
    config.mod = wl::modulation::qam16;
    config.paths = pt::parse_spec_list("zf");
    config.num_threads = 1;
    config.stream_block = 256;
    config.arq = hcq::arq::parse_arq("deadline_us=0,max_retx=2");
    constexpr std::size_t n = 512;
    config.num_uses = n;
    // One untimed run first: lazy statics cost one-time allocations.
    (void)link_allocations(config);
    const std::uint64_t short_run = link_allocations(config);
    config.num_uses = 2 * n;
    const std::uint64_t long_run = link_allocations(config);
    // Signed: with nothing allocated per job, the longer run's queues can
    // settle into fewer growth steps than the shorter run's.
    const double per_retransmission =
        (static_cast<double>(long_run) - static_cast<double>(short_run)) /
        static_cast<double>(2 * n);
    EXPECT_LT(per_retransmission, 0.1);
}

TEST(AllocRegression, CodedFramesReuseWorkerScratch) {
    // The open-loop k7 coded link: per frame, soft output of every use,
    // Viterbi decoding and the per-path fold.  As above, the window buffers
    // match in both runs (stream_block < n), so the longer run's extra
    // allocations are per-use cost.
    hcq::link::link_config config;
    config.num_users = 4;
    config.mod = wl::modulation::qam16;
    config.paths = pt::parse_spec_list("zf,mmse");
    config.num_threads = 1;
    config.stream_block = 256;
    config.fec = hcq::fec::code_spec::parse("k7");
    constexpr std::size_t n = 512;
    config.num_uses = n;
    // One untimed run first: the path registry and other lazy statics cost
    // thousands of one-time allocations, more than the per-use extras, when
    // this test runs alone in its process.
    (void)link_allocations(config);
    const std::uint64_t short_run = link_allocations(config);
    config.num_uses = 2 * n;
    const std::uint64_t long_run = link_allocations(config);
    const double per_use =
        (static_cast<double>(long_run) - static_cast<double>(short_run)) /
        static_cast<double>(n);
    EXPECT_LT(per_use, 0.1);
}

TEST(AllocRegression, CodedTreeSearchFramesReuseWorkerScratch) {
    // The k7 coded link on mmse,kbest: kbest's soft output is the
    // flip-recost form, which must reuse the worker's workspace as the
    // linear soft output does.  Same shape as the zf,mmse case above.
    hcq::link::link_config config;
    config.num_users = 4;
    config.mod = wl::modulation::qam16;
    config.paths = pt::parse_spec_list("mmse,kbest");
    config.num_threads = 1;
    config.stream_block = 256;
    config.fec = hcq::fec::code_spec::parse("k7");
    constexpr std::size_t n = 512;
    config.num_uses = n;
    // One untimed run first: lazy statics cost one-time allocations.
    (void)link_allocations(config);
    const std::uint64_t short_run = link_allocations(config);
    config.num_uses = 2 * n;
    const std::uint64_t long_run = link_allocations(config);
    const double per_use =
        (static_cast<double>(long_run) - static_cast<double>(short_run)) /
        static_cast<double>(n);
    EXPECT_LT(per_use, 0.1);
}

TEST(AllocRegression, CorrelatedRetransmissionsReuseWorkerScratch) {
    // The coded chase-ARQ link on a correlated channel with imperfect CSI:
    // a retransmission goes on the air through the H(t) an earlier attempt
    // of its frame holds, copied into the worker's instance.  deadline_us=0
    // retransmits every frame max_retx = 2 times, so doubling the stream
    // adds 2n retransmitted uses; as above, the window buffers match in
    // both runs.
    hcq::link::link_config config;
    config.num_users = 4;
    config.mod = wl::modulation::qam16;
    config.paths = pt::parse_spec_list("mmse,kbest");
    config.channel_spec = wl::channel_spec::parse("jakes:doppler_hz=5,est_err=0.02");
    config.num_threads = 1;
    config.stream_block = 256;
    config.fec = hcq::fec::code_spec::parse("k7");
    config.arq = hcq::arq::parse_arq("deadline_us=0,max_retx=2,combining=chase");
    constexpr std::size_t n = 512;
    config.num_uses = n;
    // One untimed run first: lazy statics cost one-time allocations.
    (void)link_allocations(config);
    const std::uint64_t short_run = link_allocations(config);
    config.num_uses = 2 * n;
    const std::uint64_t long_run = link_allocations(config);
    const double per_retransmission =
        (static_cast<double>(long_run) - static_cast<double>(short_run)) /
        static_cast<double>(2 * n);
    EXPECT_LT(per_retransmission, 0.1);
}

/// Bytes requested by one streaming open-loop replay of `num_jobs` offered
/// jobs at twice the bottleneck's rate into 16-slot block-policy buffers.
std::uint64_t overloaded_block_replay_bytes(std::size_t num_jobs) {
    const std::vector<hcq::pipeline::stage> stages{hcq::pipeline::stage::constant("a", 2.0),
                                                   hcq::pipeline::stage::constant("b", 1.0)};
    hcq::util::rng rng(5);
    const std::uint64_t before = g_allocated_bytes.load(std::memory_order_relaxed);
    const auto result = hcq::pipeline::simulate(
        stages, num_jobs, {.interarrival_us = 1.0}, rng,
        {.buffer_capacity = 16,
         .policy = hcq::pipeline::backpressure::block,
         .record_latencies = false});
    const std::uint64_t bytes = g_allocated_bytes.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(result.jobs_completed, num_jobs);
    return bytes;
}

TEST(AllocRegression, OverloadedBlockReplayMemoryIsIndependentOfJobs) {
    // At load 2 about half the offered jobs are still waiting for the first
    // buffer when the last one arrives.  The source holds only the next
    // pending arrival time, so doubling the stream must not grow what the
    // replay requests (queueing every waiting job adds about 3 MB here).
    constexpr std::size_t n = 20000;
    const std::uint64_t short_run = overloaded_block_replay_bytes(n);
    const std::uint64_t long_run = overloaded_block_replay_bytes(2 * n);
    EXPECT_LT(static_cast<double>(long_run) - static_cast<double>(short_run), 4096.0);
}

// The counters themselves must be live, or the zeros above prove nothing.
TEST(AllocRegression, CounterObservesAllocations) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const std::uint64_t bytes_before = g_allocated_bytes.load(std::memory_order_relaxed);
    std::vector<double>* v = new std::vector<double>(1024);
    delete v;
    EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
    EXPECT_GE(g_allocated_bytes.load(std::memory_order_relaxed) - bytes_before,
              1024 * sizeof(double));
}

}  // namespace
