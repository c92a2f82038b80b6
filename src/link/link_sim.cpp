#include "link/link_sim.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>

#include "fec/codec.h"
#include "metrics/stats.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "wireless/mimo.h"
#include "wireless/soft.h"

namespace hcq::link {
namespace {

// Stream-id tags keeping channel-use synthesis draws disjoint from solver
// draws; the canonical values live in link_sim.h (stream_domains) because
// the serving front end derives from the same domains to reproduce served
// batches bit-for-bit.
//
// ARQ retransmission streams: attempt r of use u draws from
// derive(arq_*_domain).derive(u [* num_paths + p]).derive(r) — globally
// indexed, so ARQ counters inherit the thread-count / stream-block
// invariance, and disjoint from the open-loop streams, so enabling
// ARQ never perturbs the golden open-loop statistics.
//
// Correlated-fading tap parameters (wireless/channel_spec.h) freeze from the
// fading stream — disjoint from every domain above, so configuring a channel
// spec never perturbs the synthesis/solve draws, and `--channel` unset
// stays byte-identical to the pre-spec implementation.
constexpr std::uint64_t synth_stream_domain = stream_domains::synthesis;
constexpr std::uint64_t solve_stream_domain = stream_domains::solve;
constexpr std::uint64_t arq_synth_domain = stream_domains::arq_synthesis;
constexpr std::uint64_t arq_solve_domain = stream_domains::arq_solve;
constexpr std::uint64_t fading_stream_domain = stream_domains::fading;
constexpr std::uint64_t fec_stream_domain = stream_domains::fec;

// An ARQ retransmission goes back on the air one channel use after the
// attempt it repeats: attempt r of frame u sees the fading process at
// t = u + r * retx_lag_uses.  At low Doppler (coherence time >> 1 use) a
// frame that failed in a deep fade therefore RETRIES inside the same fade —
// the retransmission-concentration behaviour the acceptance scenario
// measures — while at high Doppler the retry sees a fresh channel.
constexpr double retx_lag_uses = 1.0;

void validate(const link_config& config) {
    if (config.num_uses == 0) throw std::invalid_argument("link: zero channel uses");
    if (config.num_users == 0) throw std::invalid_argument("link: zero users");
    if (config.paths.empty()) throw std::invalid_argument("link: no detection paths");
    if (!(config.offered_load > 0.0) || !std::isfinite(config.offered_load)) {
        throw std::invalid_argument("link: offered load must be positive and finite");
    }
    if (config.buffer_capacity == 0) {
        throw std::invalid_argument(
            "link: buffer capacity 0 can never admit work; use >= 1 or "
            "pipeline::unbounded_capacity");
    }
    if (config.stream_block == 0) throw std::invalid_argument("link: zero stream block");
}

/// Shared setup of the measured-trace tandem-queue replay: the staged
/// service models and the arrival pacing — used by both the open-loop
/// replay and the ARQ closed-loop replay so the two see identical load.
struct replay_setup {
    std::vector<pipeline::stage> stages;
    double interarrival_us = 0.0;
    pipeline::sim_options options;
};

replay_setup build_replay(const path_report& path, const link_config& config) {
    replay_setup setup;
    double bottleneck_us = 0.0;
    for (std::size_t s = 0; s < path.stages.size(); ++s) {
        const auto& trace = path.stages[s];
        const std::size_t servers = path.stage_servers[s];
        setup.stages.push_back(pipeline::stage::from_trace(trace.name(), trace.replay_sample())
                                   .with_servers(servers));
        // Pace arrivals by the mean of the sample actually being replayed,
        // so the requested load is honoured against the cycled trace even
        // where the strided sample and the full-stream digest mean differ
        // slightly.  A stage bank of S devices drains S times faster than
        // one.
        metrics::running_stats sample_stats;
        for (const double v : trace.replay_sample()) sample_stats.add(v);
        bottleneck_us = std::max(bottleneck_us, sample_stats.mean() / static_cast<double>(servers));
    }
    // Arrivals pace the bottleneck at the configured load; the floor guards
    // against a degenerate all-zero trace from timer quantisation.
    setup.interarrival_us = std::max(bottleneck_us / config.offered_load, 1e-3);
    // Constant-memory replay: bounded buffers per the config, percentiles
    // from the digest instead of an O(uses) latency vector.
    setup.options = pipeline::sim_options{.buffer_capacity = config.buffer_capacity,
                                          .policy = config.policy,
                                          .record_latencies = false};
    return setup;
}

pipeline::simulation_result replay_traces(const path_report& path, const link_config& config) {
    const replay_setup setup = build_replay(path, config);
    util::rng arrivals_rng(config.seed);  // unused by deterministic arrivals
    return pipeline::simulate(setup.stages, config.num_uses,
                              {.interarrival_us = setup.interarrival_us}, arrivals_rng,
                              setup.options);
}

/// Per-(frame, path) outcome of the frame chain — the attempt-0 verdict plus
/// the ARQ retransmissions when engaged — filled by the pool workers and
/// folded serially.  An uncoded frame is one channel use.  Memory is
/// O(frames-per-window x paths), constant in num_uses.
struct frame_cell {
    qubo::bit_vector decoded0;  ///< attempt-0 decoded information bits (coded frames)
    std::size_t attempts = 1;   ///< transmissions incl. retransmissions
    std::size_t wrong = 0;      ///< attempts judged wrong
    bool first_ok = true;
    bool final_ok = true;
    std::vector<double> retx_service_us;  ///< measured service per retransmission
};

/// Everything one pool slot reuses across windows.  util::thread_pool::
/// for_each_slot hands a slot to one thread at a time, so none of this is
/// locked; and none of it is a statistic — which slot runs a cell never
/// changes what the cell computes.
struct worker {
    paths::workspace ws;
    std::optional<fec::codec> codec;     ///< coded links: trellis tables + decode scratch
    std::vector<std::uint8_t> use_bits;  ///< one use's zero-padded coded bits
    std::vector<double> llrs;            ///< one attempt's frame LLRs
    std::vector<double> combined_llrs;   ///< chase-combining accumulator
    std::vector<std::uint8_t> decoded;   ///< retransmission decode

    /// The current frame's retransmitted uses, attempt-major
    /// ([(r - 1) * uses_per_frame + j]): synthesised once per attempt and
    /// reduced at most once, however many paths retransmit the frame.
    std::vector<wireless::mimo_instance> retx_instances;
    std::vector<detect::ml_qubo> retx_mqs;
    std::vector<double> retx_reduce_us;
    std::size_t attempts_synthesized = 0;          ///< of the current frame
    std::size_t attempts_reduced = 0;              ///< of the current frame
    std::vector<paths::path_result> retx_results;  ///< one attempt's per-use results

    std::vector<util::rng> rngs;            ///< one detection batch's solve streams
    std::vector<paths::path_context> ctxs;  ///< one detection batch's contexts
};

/// Coded bits of use `j` of a frame, zero-padded to a whole channel use (the
/// final use of a frame may carry fewer than bits_per_use coded bits).
void pad_use_bits(const qubo::bit_vector& coded, std::size_t j, std::size_t bits_per_use,
                  std::vector<std::uint8_t>& out) {
    out.assign(bits_per_use, 0);
    const std::size_t lo = j * bits_per_use;
    const std::size_t n = std::min(bits_per_use, coded.size() - lo);
    std::copy(coded.begin() + static_cast<std::ptrdiff_t>(lo),
              coded.begin() + static_cast<std::ptrdiff_t>(lo + n), out.begin());
}

/// Copies the non-padding prefix of one use's LLRs into the frame vector.
void gather_use_llrs(const std::vector<double>& llrs, std::size_t j, std::size_t bits_per_use,
                     std::size_t coded_bits, std::vector<double>& frame) {
    const std::size_t lo = j * bits_per_use;
    const std::size_t n = std::min(bits_per_use, coded_bits - lo);
    std::copy(llrs.begin(), llrs.begin() + static_cast<std::ptrdiff_t>(n),
              frame.begin() + static_cast<std::ptrdiff_t>(lo));
}

}  // namespace

stage_trace::stage_trace(std::string name, std::size_t sample_stride)
    : name_(std::move(name)), sample_stride_(std::max<std::size_t>(sample_stride, 1)) {}

stage_trace::stage_trace(std::string name, const std::vector<double>& service_us)
    : stage_trace(std::move(name)) {
    for (const double v : service_us) add(v);
}

void stage_trace::add(double service_us) {
    const std::uint64_t index = digest_.count();
    digest_.add(service_us);
    if (index % sample_stride_ == 0 && sample_.size() < replay_sample_capacity) {
        sample_.push_back(service_us);
    }
}

double burst_stats::mean_burst_length() const noexcept {
    if (bursts == 0) return 0.0;
    return static_cast<double>(error_frames) / static_cast<double>(bursts);
}

double fec_path_report::coded_fer() const noexcept {
    return frames > 0 ? static_cast<double>(frame_errors) / static_cast<double>(frames) : 0.0;
}

std::vector<std::string> path_report::stage_names() const {
    std::vector<std::string> names;
    names.reserve(stages.size());
    for (const auto& trace : stages) names.push_back(trace.name());
    return names;
}

const path_report& link_report::path(std::string_view query) const {
    for (const auto& p : paths) {
        if (p.kind == query || p.name == query || p.spec == query) return p;
    }
    throw std::out_of_range("link_report: no such path: " + std::string(query));
}

link_report run_link_simulation(const link_config& config) {
    validate(config);

    // Resolve every spec through the registry once; the paths are shared
    // read-only across workers.  Exact duplicates (same canonical spec)
    // would report two indistinguishable columns, so they are rejected —
    // but two *different* specs of the same kind (e.g. two K-best widths)
    // are a legitimate side-by-side comparison.
    const auto paths = paths::registry::make_all(config.paths);
    std::vector<std::string> canonical(paths.size());
    for (std::size_t p = 0; p < paths.size(); ++p) canonical[p] = paths[p]->spec().to_string();
    for (std::size_t a = 0; a < canonical.size(); ++a) {
        for (std::size_t b = a + 1; b < canonical.size(); ++b) {
            if (canonical[a] == canonical[b]) {
                throw std::invalid_argument("link: duplicate detection path '" + canonical[a] +
                                            "'");
            }
        }
    }

    const std::size_t num_paths = paths.size();
    const bool needs_qubo = std::any_of(paths.begin(), paths.end(),
                                        [](const auto& path) { return path->needs_qubo(); });

    // Replay samples stride uniformly across the stream so long replays are
    // not driven by warm-up-era service times alone.
    const std::size_t sample_stride =
        (config.num_uses + stage_trace::replay_sample_capacity - 1) /
        stage_trace::replay_sample_capacity;

    link_report report;
    report.config = config;
    report.synthesis = stage_trace("synth", sample_stride);
    report.reduction = stage_trace("qubo", sample_stride);
    report.paths.resize(num_paths);
    std::vector<std::vector<std::string>> solve_stages(num_paths);
    std::vector<std::size_t> first_solve_stage(num_paths);
    std::vector<std::uint8_t> path_needs_qubo(num_paths, 0);
    for (std::size_t p = 0; p < num_paths; ++p) {
        path_report& path = report.paths[p];
        path.kind = paths[p]->spec().kind;
        path.name = paths[p]->name();
        path.spec = canonical[p];
        path.service = stage_trace("service", sample_stride);
        path_needs_qubo[p] = paths[p]->needs_qubo() ? 1 : 0;

        solve_stages[p] = paths[p]->stage_names();
        const auto solve_servers = paths[p]->stage_servers();
        if (solve_servers.size() != solve_stages[p].size()) {
            throw std::logic_error("link: path '" + path.spec + "' declares " +
                                   std::to_string(solve_servers.size()) +
                                   " stage server counts for " +
                                   std::to_string(solve_stages[p].size()) + " stages");
        }
        path.stages.emplace_back("synth", sample_stride);
        path.stage_servers.push_back(1);
        if (paths[p]->needs_qubo()) {
            path.stages.emplace_back("qubo", sample_stride);
            path.stage_servers.push_back(1);
        }
        first_solve_stage[p] = path.stages.size();
        for (std::size_t s = 0; s < solve_stages[p].size(); ++s) {
            path.stages.emplace_back(solve_stages[p][s], sample_stride);
            path.stage_servers.push_back(solve_servers[s]);
        }
        if (config.fec) path.fec.emplace();
        if (config.arq) {
            path.arq.emplace();
            path.arq->retx_service = stage_trace("retx service", sample_stride);
        }
    }

    const util::rng synth_base = util::rng(config.seed).derive(synth_stream_domain);
    const util::rng solve_base = util::rng(config.seed).derive(solve_stream_domain);
    const util::rng arq_synth_base = util::rng(config.seed).derive(arq_synth_domain);
    const util::rng arq_solve_base = util::rng(config.seed).derive(arq_solve_domain);
    const util::rng fec_base = util::rng(config.seed).derive(fec_stream_domain);

    // Channel resolution: one frozen realisation per run (correlated taps
    // drawn from the dedicated fading domain), plus the spec's SNR override
    // and CSI estimation-error variance.  With no spec, the i.i.d. process
    // of `config.channel` stands in — byte-identical to the plain channel
    // draw by the channel_spec.h contract — so every synthesis is one call.
    const wireless::channel_spec channel =
        config.channel_spec ? *config.channel_spec
                            : wireless::channel_spec::parse(wireless::to_string(config.channel));
    const auto process = wireless::make_channel_process(
        channel, config.num_users, config.num_users,
        util::rng(config.seed).derive(fading_stream_domain));

    // Frame geometry.  An uncoded frame is one channel use.  One coded frame
    // (rows x cols interleaved bits) spans ceil(coded_bits / bits_per_use)
    // consecutive channel uses with the final use zero-padded; the stream
    // must carry whole frames.
    const bool coded = config.fec.has_value();
    const std::size_t bits_per_use = config.num_users * wireless::bits_per_symbol(config.mod);
    const std::size_t coded_bits = coded ? config.fec->coded_bits() : 0;
    const std::size_t uses_per_frame =
        coded ? (coded_bits + bits_per_use - 1) / bits_per_use : 1;
    if (coded && config.num_uses % uses_per_frame != 0) {
        throw std::invalid_argument(
            "link: num_uses (" + std::to_string(config.num_uses) +
            ") must be a whole number of coded frames — '" + config.fec->to_string() +
            "' spans " + std::to_string(uses_per_frame) + " uses per frame at " +
            std::to_string(bits_per_use) + " bits per use");
    }
    const std::size_t max_retx = config.arq ? config.arq->max_retx : 0;
    const bool chase = config.arq && config.arq->combining == arq::combining_mode::chase;

    // The stream is processed in fixed-size windows of whole frames, each in
    // three phases with a barrier between them: (A) synthesise every frame's
    // uses and build the shared QUBO reductions, (B) run every (path, use)
    // detection cell batched through detection_path::run_block — plus the
    // soft_output call a coded frame's decode needs — and (C) run every
    // (frame, path) chain: the attempt-0 verdict and the ARQ
    // retransmissions.  Workers fill disjoint slots in parallel, then the
    // window is folded serially in use and frame order into the
    // constant-size aggregates above.  All buffers below persist across
    // windows, so after the first window the steady state reuses their
    // capacity; peak memory is O(stream_block x paths), independent of
    // num_uses.  Rounding the block down to whole frames (at least one) is
    // pure scheduling: every draw, solve, and decode is indexed by its
    // GLOBAL use/frame index, so no statistic depends on it.
    const std::size_t block =
        std::max(uses_per_frame,
                 std::min(config.stream_block, config.num_uses) / uses_per_frame * uses_per_frame);
    const std::size_t frames_per_block = block / uses_per_frame;
    std::vector<wireless::mimo_instance> instances(block);
    std::vector<detect::ml_qubo> mqs(block);
    std::vector<double> synth_us(block, 0.0);
    std::vector<double> reduce_us(block, 0.0);
    std::vector<paths::path_result> cells(num_paths * block);  // path-major: [p * block + i]
    std::vector<qubo::bit_vector> frame_info(frames_per_block);
    std::vector<qubo::bit_vector> frame_coded(frames_per_block);
    std::vector<frame_cell> frame_cells(num_paths * frames_per_block);  // [p * frames + f]

    const wireless::mimo_config mimo = [&] {
        wireless::mimo_config m;
        m.mod = config.mod;
        m.num_users = config.num_users;
        m.num_antennas = config.num_users;
        m.noise_variance =
            config.noiseless
                ? 0.0
                : wireless::noise_variance_for_snr(config.mod, config.num_users,
                                                   channel.snr_db.value_or(config.snr_db));
        return m;
    }();

    // Per-path length of the error run currently open in the serial fold —
    // carried across windows so burst statistics are stream_block-invariant.
    std::vector<std::uint64_t> error_run(num_paths, 0);

    // One pool for the whole stream and one worker per pool slot;
    // num_threads == 1 degrades to a serial loop on worker 0.
    std::optional<util::thread_pool> pool;
    if (config.num_threads != 1 && block > 1) pool.emplace(config.num_threads);
    std::vector<worker> workers(pool ? pool->size() : 1);
    for (worker& w : workers) {
        if (coded) w.codec.emplace(*config.fec);
        w.retx_instances.resize(max_retx * uses_per_frame);
        w.retx_mqs.resize(max_retx * uses_per_frame);
        w.retx_reduce_us.resize(max_retx * uses_per_frame);
        w.retx_results.resize(uses_per_frame);
    }
    const auto run_all = [&](std::size_t count, const auto& task) {
        if (pool && count > 1) {
            pool->for_each_slot(count,
                                [&](std::size_t slot, std::size_t i) { task(workers[slot], i); });
        } else {
            for (std::size_t i = 0; i < count; ++i) task(workers[0], i);
        }
    };

    // Batched detection granularity: one pool task runs run_block over a
    // chunk of uses, amortising task dispatch while leaving enough tasks
    // per window for the pool to balance.  Pure scheduling — every cell still draws from its
    // globally-indexed stream, so the chunk size affects no statistic.
    constexpr std::size_t run_chunk = 64;

    for (std::size_t base = 0; base < config.num_uses; base += block) {
        const std::size_t window = std::min(block, config.num_uses - base);
        const std::size_t window_frames = window / uses_per_frame;

        // The bits use j of frame fi puts on the air: the coded frame's
        // zero-padded slice, or none — an uncoded use carries its own draw.
        const auto air_bits = [&](worker& w, std::size_t fi,
                                  std::size_t j) -> std::span<const std::uint8_t> {
            if (!coded) return {};
            pad_use_bits(frame_coded[fi], j, bits_per_use, w.use_bits);
            return w.use_bits;
        };

        // Phase A: synthesise the channel uses (channel draw + modulation)
        // and build the shared QUBO reductions (QuAMax transform) frame at a
        // time.  A coded frame first draws its information bits from the
        // fec stream (indexed by GLOBAL frame) and encodes + interleaves
        // them once; its uses then carry the coded bits in place of the
        // (still consumed) uniform tx-bit draws.  The reduction is skipped —
        // trace stays zero — when only conventional detectors are configured.
        const auto synth_frame = [&](worker& w, std::size_t fi) {
            if (coded) {
                util::rng info_rng = fec_base.derive(base / uses_per_frame + fi);
                info_rng.bits_into(w.codec->info_bits(), frame_info[fi]);
                w.codec->encode_frame(frame_info[fi], frame_coded[fi]);
            }
            for (std::size_t j = 0; j < uses_per_frame; ++j) {
                const std::size_t i = fi * uses_per_frame + j;
                const std::size_t u = base + i;
                util::rng synth_rng = synth_base.derive(u);
                const std::span<const std::uint8_t> bits = air_bits(w, fi, j);
                util::timer synth_clock;
                wireless::synthesize_at_coded_into(synth_rng, mimo, *process,
                                                   static_cast<double>(u), channel.est_err, bits,
                                                   instances[i]);
                synth_us[i] = synth_clock.elapsed_us();
                reduce_us[i] = 0.0;
                if (needs_qubo) {
                    util::timer reduce_clock;
                    detect::ml_to_qubo_into(instances[i], w.ws.detect.qubo, mqs[i]);
                    reduce_us[i] = reduce_clock.elapsed_us();
                }
            }
        };
        run_all(window_frames, synth_frame);

        // Runs path p on a batch of uses through run_block into `out`, plus
        // the soft output a coded frame's decode needs — the detection step
        // of phase B and of every retransmission attempt.  Each cell draws
        // from solve_rng(j), a stream indexed by the GLOBAL use, so no
        // statistic depends on the batching or on which worker — and hence
        // which workspace — runs it.
        const auto detect_batch = [&](worker& w, std::size_t p,
                                      std::span<const wireless::mimo_instance> uses,
                                      std::span<const detect::ml_qubo> reductions,
                                      const auto& solve_rng, std::span<paths::path_result> out) {
            w.rngs.clear();
            for (std::size_t j = 0; j < uses.size(); ++j) w.rngs.push_back(solve_rng(j));
            w.ctxs.clear();
            for (std::size_t j = 0; j < uses.size(); ++j) {
                const detect::ml_qubo* reduced = path_needs_qubo[p] != 0 ? &reductions[j] : nullptr;
                w.ctxs.push_back({uses[j], reduced, w.rngs[j], &w.ws});
            }
            paths[p]->run_block(w.ctxs, out);
            if (coded) {
                for (std::size_t j = 0; j < uses.size(); ++j) {
                    paths[p]->soft_output(w.ctxs[j], out[j]);
                }
            }
        };

        // Phase B: every configured path detects every use, in chunks.
        const std::size_t chunks_per_path = (window + run_chunk - 1) / run_chunk;
        run_all(num_paths * chunks_per_path, [&](worker& w, std::size_t task) {
            const std::size_t p = task / chunks_per_path;
            const std::size_t c0 = (task % chunks_per_path) * run_chunk;
            const std::size_t n = std::min(run_chunk, window - c0);
            detect_batch(
                w, p, std::span<const wireless::mimo_instance>(instances).subspan(c0, n),
                std::span<const detect::ml_qubo>(mqs).subspan(c0, n),
                [&](std::size_t j) { return solve_base.derive((base + c0 + j) * num_paths + p); },
                std::span<paths::path_result>(cells).subspan(p * block + c0, n));
        });

        // The frame's verdict on one attempt.  Beyond which bits go on the
        // air and whether soft output is computed, this is the only place
        // coded and uncoded frames differ: an uncoded frame (one use) is
        // judged on its hard bits against the bits that use carried; a coded
        // frame decodes its uses' LLRs — chase-combined across attempts
        // under combining=chase, each attempt alone otherwise — against the
        // frame's information bits.  Decoding is a pure function of the
        // LLRs and the combining order is the attempt order, so verdicts
        // inherit the invariances.
        const auto judge = [&](worker& w, std::size_t fi, std::size_t attempt,
                               std::span<const wireless::mimo_instance> uses,
                               std::span<const paths::path_result> results,
                               std::vector<std::uint8_t>& decoded) {
            if (!coded) return results[0].bits == uses[0].tx_bits;
            w.llrs.resize(coded_bits);
            for (std::size_t j = 0; j < uses_per_frame; ++j) {
                gather_use_llrs(results[j].llrs, j, bits_per_use, coded_bits, w.llrs);
            }
            if (chase && attempt == 0) w.combined_llrs = w.llrs;
            if (chase && attempt > 0) wireless::accumulate_llrs(w.llrs, w.combined_llrs);
            w.codec->decode_frame(chase && attempt > 0 ? w.combined_llrs : w.llrs, decoded);
            return decoded == frame_info[fi];
        };

        // Attempt r >= 1 of frame fi on the air: fresh channel uses from the
        // (use, attempt) synthesis streams — the SAME coded bits on a coded
        // link, freshly drawn bits on an uncoded one — and the fading
        // process one lag later per attempt.  Shared across paths like the
        // open-loop uses: synthesised once per frame and QUBO-reduced at
        // most once (paths ask for attempts in order, so two counters track
        // what exists); each path's service still counts the reduction time
        // its own pipeline would spend.  Returns the attempt's memo offset.
        const auto retransmit = [&](worker& w, std::size_t fi, std::size_t attempt,
                                    bool reduce) {
            const std::size_t k0 = (attempt - 1) * uses_per_frame;
            if (attempt > w.attempts_synthesized) {
                for (std::size_t j = 0; j < uses_per_frame; ++j) {
                    const std::size_t u = base + fi * uses_per_frame + j;
                    util::rng retx_synth = arq_synth_base.derive(u).derive(attempt);
                    const std::span<const std::uint8_t> bits = air_bits(w, fi, j);
                    wireless::synthesize_at_coded_into(
                        retx_synth, mimo, *process,
                        static_cast<double>(u) + static_cast<double>(attempt) * retx_lag_uses,
                        channel.est_err, bits, w.retx_instances[k0 + j]);
                }
                w.attempts_synthesized = attempt;
            }
            if (reduce && attempt > w.attempts_reduced) {
                for (std::size_t j = 0; j < uses_per_frame; ++j) {
                    util::timer reduce_clock;
                    detect::ml_to_qubo_into(w.retx_instances[k0 + j], w.ws.detect.qubo,
                                            w.retx_mqs[k0 + j]);
                    w.retx_reduce_us[k0 + j] = reduce_clock.elapsed_us();
                }
                w.attempts_reduced = attempt;
            }
            return k0;
        };

        // Phase C: every (frame, path) chain — attempt 0 is the window's
        // detection; while arq::needs_retx asks for it, attempt r re-solves
        // the frame on its retransmitted uses with solve streams indexed by
        // the GLOBAL (use * num_paths + p, attempt).  Only run when a
        // verdict is consumed: by the coded statistics or by ARQ.
        const auto frame_chain = [&](worker& w, std::size_t fi) {
            const std::size_t i0 = fi * uses_per_frame;
            w.attempts_synthesized = 0;
            w.attempts_reduced = 0;
            for (std::size_t p = 0; p < num_paths; ++p) {
                frame_cell& fc = frame_cells[p * frames_per_block + fi];
                bool ok = judge(w, fi, 0,
                                std::span<const wireless::mimo_instance>(instances)
                                    .subspan(i0, uses_per_frame),
                                std::span<const paths::path_result>(cells).subspan(
                                    p * block + i0, uses_per_frame),
                                fc.decoded0);
                fc.first_ok = ok;
                fc.wrong = ok ? 0 : 1;
                fc.retx_service_us.clear();  // keeps capacity across windows
                std::size_t attempt = 0;
                while (config.arq && arq::needs_retx(*config.arq, ok, attempt)) {
                    ++attempt;
                    const bool wants_qubo = path_needs_qubo[p] != 0;
                    const std::size_t k0 = retransmit(w, fi, attempt, wants_qubo);
                    const auto uses = std::span<const wireless::mimo_instance>(w.retx_instances)
                                          .subspan(k0, uses_per_frame);
                    detect_batch(
                        w, p, uses,
                        std::span<const detect::ml_qubo>(w.retx_mqs).subspan(k0, uses_per_frame),
                        [&](std::size_t j) {
                            return arq_solve_base.derive((base + i0 + j) * num_paths + p)
                                .derive(attempt);
                        },
                        w.retx_results);
                    double service_sum = 0.0;
                    for (std::size_t j = 0; j < uses_per_frame; ++j) {
                        if (wants_qubo) service_sum += w.retx_reduce_us[k0 + j];
                        for (const auto& st : w.retx_results[j].stages) {
                            service_sum += st.service_us;
                        }
                    }
                    ok = judge(w, fi, attempt, uses, w.retx_results, w.decoded);
                    if (!ok) ++fc.wrong;
                    fc.retx_service_us.push_back(service_sum);
                }
                fc.attempts = attempt + 1;
                fc.final_ok = ok;
            }
        };
        if (coded || config.arq) run_all(window_frames, frame_chain);

        // Serial aggregation in use order, then in frame order: the merged
        // statistics never depend on the scheduling order above.
        for (std::size_t i = 0; i < window; ++i) {
            const qubo::bit_vector& tx_bits = instances[i].tx_bits;
            report.synthesis.add(synth_us[i]);
            report.reduction.add(reduce_us[i]);
            for (std::size_t p = 0; p < num_paths; ++p) {
                path_report& path = report.paths[p];
                const paths::path_result& cell = cells[p * block + i];
                if (cell.stages.size() != solve_stages[p].size()) {
                    throw std::logic_error("link: path '" + path.spec + "' returned " +
                                           std::to_string(cell.stages.size()) +
                                           " stage timings but declared " +
                                           std::to_string(solve_stages[p].size()));
                }
                path.ber.add_frame(tx_bits, cell.bits);
                if (cell.bits == tx_bits) {
                    ++path.exact_frames;
                    error_run[p] = 0;
                } else {
                    ++path.bursts.error_frames;
                    if (++error_run[p] == 1) ++path.bursts.bursts;
                    path.bursts.longest_burst =
                        std::max(path.bursts.longest_burst, error_run[p]);
                }
                path.sum_ml_cost += cell.ml_cost;

                path.stages[0].add(synth_us[i]);
                double service_sum = 0.0;
                if (path_needs_qubo[p] != 0) {  // has the shared qubo stage
                    path.stages[1].add(reduce_us[i]);
                    service_sum += reduce_us[i];
                }
                for (std::size_t s = 0; s < cell.stages.size(); ++s) {
                    path.stages[first_solve_stage[p] + s].add(cell.stages[s].service_us);
                    service_sum += cell.stages[s].service_us;
                }
                path.service.add(service_sum);
            }
        }
        for (std::size_t fi = 0; fi < window_frames; ++fi) {
            for (std::size_t p = 0; p < num_paths; ++p) {
                path_report& path = report.paths[p];
                const frame_cell& fc = frame_cells[p * frames_per_block + fi];
                if (coded) {
                    ++path.fec->frames;
                    if (!fc.first_ok) ++path.fec->frame_errors;
                    path.fec->info_ber.add_frame(frame_info[fi], fc.decoded0);
                }
                if (config.arq) {
                    path.arq->counters.add_frame(fc.attempts, fc.wrong, fc.first_ok,
                                                 fc.final_ok);
                    for (const double s_us : fc.retx_service_us) {
                        path.arq->retx_service.add(s_us);
                    }
                }
            }
        }
    }

    for (std::size_t p = 0; p < num_paths; ++p) {
        path_report& path = report.paths[p];
        path.replay = replay_traces(path, config);
        if (config.arq) {
            // Closed-loop replay: same stages and pacing as the open-loop
            // replay, with failed frames re-entering the chain.  `auto`
            // deadlines resolve to the open-loop replay's p99 — the ARQ
            // loop driven by the replay's own latency budget.  With FEC on,
            // the measured attempt_error_rate is frame-based while the
            // replayed jobs are still per-use attempts — a documented
            // approximation (the coded frame's uses share fate).
            arq_path_report& ar = *path.arq;
            const double resolved_deadline_us = config.arq->deadline_auto
                                                    ? path.replay.p99_latency_us
                                                    : config.arq->deadline_us;
            const replay_setup setup = build_replay(path, config);
            util::rng replay_rng(config.seed);
            auto closed = arq::closed_loop_replay(
                setup.stages, config.num_uses, ar.counters.attempt_error_rate(),
                resolved_deadline_us, config.arq->max_retx,
                {.interarrival_us = setup.interarrival_us}, replay_rng, setup.options);
            ar.replay_stats = closed.stats;
            ar.closed_replay = std::move(closed.replay);
        }
    }
    return report;
}

util::table summary_table(const link_report& report) {
    const bool fec_on = report.config.fec.has_value();
    const bool arq_on = report.config.arq.has_value();
    std::vector<std::string> headers{"path", "BER", "bit errs", "exact uses", "err burst",
                                     "svc mean us",
                                     "svc p50 us", "svc p99 us", "thrpt use/ms", "p50 lat us",
                                     "p99 lat us", "drop rate", "peak queue"};
    if (fec_on) {
        // Attempt-0 coded statistics (detection domain, bit-identical): the
        // raw BER columns to the left stay the uncoded per-use view.
        headers.insert(headers.end(), {"coded FER", "coded BER"});
    }
    if (arq_on) {
        // Detection-domain residual FER / retx rate (bit-identical), then
        // timing-domain deadline-miss rate / goodput (closed-loop replay).
        headers.insert(headers.end(),
                       {"resid FER", "retx rate", "miss rate", "goodput use/ms"});
    }
    util::table t(std::move(headers));
    for (const auto& path : report.paths) {
        // Per-path service: everything downstream of the shared synthesis
        // stage (for the hybrid that is qubo + classical + quantum).
        std::size_t peak_queue = 0;
        for (const std::size_t q : path.replay.max_queue_len) {
            peak_queue = std::max(peak_queue, q);
        }
        std::vector<std::string> row{path.name,
                                     util::format_double(path.ber.rate(), 5),
                                     std::to_string(path.ber.errors()),
                                     std::to_string(path.exact_frames),
                                     std::to_string(path.bursts.longest_burst),
                                     util::format_double(path.service.mean_us()),
                                     util::format_double(path.service.p50_us()),
                                     util::format_double(path.service.p99_us()),
                                     util::format_double(path.replay.throughput_per_us * 1000.0),
                                     util::format_double(path.replay.p50_latency_us),
                                     util::format_double(path.replay.p99_latency_us),
                                     util::format_double(path.replay.drop_rate, 5),
                                     std::to_string(peak_queue)};
        if (fec_on) {
            const fec_path_report& fr = *path.fec;
            row.push_back(util::format_double(fr.coded_fer(), 5));
            row.push_back(util::format_double(fr.info_ber.rate(), 5));
        }
        if (arq_on) {
            const arq_path_report& ar = *path.arq;
            row.push_back(util::format_double(ar.counters.residual_fer(), 5));
            row.push_back(util::format_double(ar.counters.retx_rate(), 4));
            row.push_back(util::format_double(ar.replay_stats.miss_rate(), 5));
            row.push_back(util::format_double(ar.replay_stats.goodput_per_us * 1000.0));
        }
        t.add_row(std::move(row));
    }
    return t;
}

}  // namespace hcq::link
