// The ARQ / retransmission layer — the paper's closed-loop system model.
//
// Kim & Venturelli's systems argument (HotNets 2020, Section 3) is that
// detection quality only matters inside the link layer's latency budget:
// an answer arriving past the retransmission deadline is worthless, because
// the protocol has already given up on the frame.  The open-loop link
// simulator (link/link_sim.h) measures quality and latency side by side;
// this layer closes the loop: a frame whose attempt FAILED — detected bits
// wrong, or the replayed end-to-end latency past the ARQ deadline — is
// re-enqueued as a retransmission, up to `max_retx` retries per frame.
//
// The loop runs in two domains, split so the repository's determinism
// contract survives:
//
//  * DETECTION domain (exact, bit-identical).  The link layer's streaming
//    loop runs every retransmission as a REAL re-solve on a fresh channel
//    use drawn from an RNG stream derived from (seed, frame, attempt) —
//    globally indexed, so the resulting `counters` (residual frame-error
//    rate, retransmission rate, attempts histogram) are bit-identical at
//    any thread count and any stream_block size, like BER.  A finite
//    nonzero deadline cannot be judged here (wall time is not
//    deterministic), so the deterministic retransmission trigger is
//    `wrong bits` — plus the degenerate `deadline_us == 0`, where every
//    attempt is late by definition and every frame retransmits until
//    max_retx regardless of correctness.
//
//  * TIMING domain (measured, varies run to run like throughput).  The
//    measured stage traces are replayed through the Figure-2 tandem queue
//    (pipeline::simulate, the open-loop replay's engine, given a feedback
//    hook): each completed attempt is judged late when its replayed
//    latency exceeds the deadline and wrong with the frame-error
//    probability MEASURED in the detection domain (a fresh channel use is
//    statistically a fresh draw), and failed frames re-enter stage 0 as
//    retransmission load — amplifying queueing exactly the way a real ARQ
//    loop feeds back, which is where `drop-oldest` becomes the natural
//    shedding policy.  This yields `replay_stats`: deadline-miss rate,
//    delivered frames, and goodput.
//
// `deadline_us` may be given as `auto`, resolving per path to the OPEN-loop
// replay's p99 latency — the ROADMAP's "ARQ loops driven by the replay's
// p99" made literal.
//
// Concurrency contract: `counters` and `replay_stats` are filled serially
// by the link layer's in-order fold (detection domain) and the
// single-threaded pipeline::simulate (timing domain) — no locks, no
// shared mutable state, hence no thread-safety annotations here; see
// docs/ARCHITECTURE.md, "The determinism contract as enforceable rules".
#ifndef HCQ_ARQ_ARQ_H
#define HCQ_ARQ_ARQ_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pipeline/pipeline.h"
#include "util/rng.h"

namespace hcq::arq {

/// Sentinel: no retransmission deadline (error-driven ARQ only).
inline constexpr double no_deadline = std::numeric_limits<double>::infinity();

/// Largest max_retx: the link sizes each worker's frame buffers to
/// max_retx + 1 attempts up front, so the bound keeps that memory small
/// (and its arithmetic exact).  Every documented run uses 3 or fewer.
inline constexpr std::size_t max_retx_limit = 64;

/// How a hybrid-ARQ retransmission uses the previous attempts' soft
/// information (engaged only when the link runs coded, link_config::fec):
/// `chase` accumulates clamped per-bit LLRs across a frame's attempts and
/// decodes against the combined vector (chase combining); `plain` decodes
/// each attempt's LLRs alone — classical ARQ, the A/B baseline.  Uncoded
/// links ignore the knob (there is no decoder to feed).
enum class combining_mode { chase, plain };  // in `combining=` name order

[[nodiscard]] const char* to_string(combining_mode mode) noexcept;

/// ARQ knobs, spec-string form "deadline_us=500,max_retx=2,combining=chase".
struct arq_config {
    /// Retransmission deadline on the replayed end-to-end latency.
    /// `no_deadline` disables the deadline trigger; 0 means every attempt
    /// is late by definition (the everything-retransmits degenerate case);
    /// `deadline_auto` resolves it per path to the open-loop replay's p99.
    double deadline_us = no_deadline;
    bool deadline_auto = false;
    /// Retransmissions allowed per frame, at most max_retx_limit; 0
    /// reproduces the open loop.
    std::size_t max_retx = 1;
    /// Soft-information handling across a coded frame's attempts (hybrid
    /// ARQ); the default is chase combining.
    combining_mode combining = combining_mode::chase;

    /// Canonical text form with every key explicit:
    /// "deadline_us=<auto|none|value>,max_retx=<n>,combining=<chase|plain>",
    /// the value printed as util::spec::format_value prints it.
    [[nodiscard]] std::string to_string() const;
};

/// Parses "deadline_us=<auto|none|value>,max_retx=<n>,combining=<chase|plain>"
/// (every key optional, any order, none repeated) through util::spec's
/// kind-less form.  "", "true", and "1" — what a bare `--arq` flag parses
/// to — yield the defaults.  Throws std::invalid_argument naming the
/// offending key or value and listing the accepted forms.
[[nodiscard]] arq_config parse_arq(const std::string& text);

/// The ARQ keys and their summaries (CLI --help body).
[[nodiscard]] std::string help();

/// Deterministic retransmission decision for the detection domain: attempt
/// `attempt` (0-based) of a frame retransmits iff retries remain AND the
/// bits were wrong or the deadline is the degenerate always-late 0.
[[nodiscard]] bool needs_retx(const arq_config& config, bool bits_ok,
                              std::size_t attempt) noexcept;

/// Detection-domain ARQ counters.  Everything here is bit-identical at any
/// thread count and stream_block size (the derived-RNG contract).
struct counters {
    std::uint64_t frames = 0;            ///< offered frames
    std::uint64_t attempts = 0;          ///< transmissions incl. retransmissions
    std::uint64_t wrong_attempts = 0;    ///< attempts whose detected bits were wrong
    std::uint64_t corrected_frames = 0;  ///< wrong on attempt 0, right on the final attempt
    std::uint64_t residual_errors = 0;   ///< frames whose FINAL attempt stayed wrong

    /// Folds one frame's completed attempt chain.
    void add_frame(std::size_t attempts_used, std::size_t wrong, bool first_ok, bool final_ok);

    [[nodiscard]] std::uint64_t retransmissions() const noexcept { return attempts - frames; }
    /// Residual frame-error rate: still-wrong frames / frames.
    [[nodiscard]] double residual_fer() const noexcept;
    /// Retransmissions per offered frame.
    [[nodiscard]] double retx_rate() const noexcept;
    [[nodiscard]] double mean_attempts() const noexcept;
    /// Per-attempt frame error probability (wrong attempts / attempts) —
    /// the measured error model the timing-domain replay draws from.
    [[nodiscard]] double attempt_error_rate() const noexcept;
};

/// Timing-domain ARQ statistics from the closed-loop trace replay.  These
/// derive from measured wall times and vary run to run, like throughput.
struct replay_stats {
    std::uint64_t frames = 0;           ///< offered frames
    std::uint64_t injections = 0;       ///< offered + retransmissions entering the chain
    std::uint64_t completions = 0;      ///< attempts that exited the chain
    std::uint64_t deadline_misses = 0;  ///< completions past the deadline
    std::uint64_t modeled_errors = 0;   ///< completions judged wrong (measured FER model)
    std::uint64_t retransmissions = 0;  ///< failed completions re-entering the chain
    std::uint64_t delivered = 0;        ///< frames completing right AND in time
    std::uint64_t exhausted = 0;        ///< frames failing their final allowed attempt
    std::uint64_t lost_to_drops = 0;    ///< injections shed at full buffers
    double resolved_deadline_us = no_deadline;  ///< deadline after `auto` resolution
    double goodput_per_us = 0.0;        ///< delivered frames / replay makespan

    /// Fraction of completed attempts past the deadline.
    [[nodiscard]] double miss_rate() const noexcept;
    /// Fraction of offered frames never delivered (exhausted or dropped).
    [[nodiscard]] double undelivered_rate() const noexcept;
};

/// Closed-loop replay outcome: the queueing result plus the ARQ view of it.
struct closed_loop_report {
    pipeline::simulation_result replay;
    replay_stats stats;
};

/// Replays `num_frames` frames through the measured stages with ARQ
/// feedback.  `attempt_error_rate` is the detection-domain per-attempt
/// frame-error probability (counters::attempt_error_rate());
/// `resolved_deadline_us` is the deadline after `auto` resolution (pass
/// config.deadline_us when not auto).  Error draws come from a stream
/// derived from `rng`, disjoint from the arrival/service draws.  Throws
/// like pipeline::simulate, plus on an error rate outside
/// [0, 1] or a negative deadline.
[[nodiscard]] closed_loop_report closed_loop_replay(
    const std::vector<pipeline::stage>& stages, std::size_t num_frames,
    double attempt_error_rate, double resolved_deadline_us, std::size_t max_retx,
    const pipeline::arrival_process& arrivals, util::rng& rng,
    const pipeline::sim_options& options);

}  // namespace hcq::arq

#endif  // HCQ_ARQ_ARQ_H
