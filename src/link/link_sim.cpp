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
#include "wireless/soft.h"

namespace hcq::link {
namespace {

// An ARQ retransmission goes back on the air one channel use after the
// attempt it repeats: attempt r of frame u sees the fading process at
// t = u + r * retx_lag_uses.  At low Doppler (coherence time >> 1 use) a
// frame that failed in a deep fade therefore RETRIES inside the same fade —
// the retransmission-concentration behaviour the acceptance scenario
// measures — while at high Doppler the retry sees a fresh channel.
constexpr double retx_lag_uses = 1.0;
static_assert(retx_lag_uses == 1.0, "on_air's first-instance rule counts whole uses");

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
    // Each worker's frame buffers hold max_retx + 1 attempts.
    if (config.arq && config.arq->max_retx > arq::max_retx_limit) {
        throw std::invalid_argument("link: arq max_retx " + std::to_string(config.arq->max_retx) +
                                    " above " + std::to_string(arq::max_retx_limit));
    }
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

/// What the serial fold needs of one attempt-0 channel use: its measured
/// front-end times and the bits it carried.
struct use_record {
    double synth_us = 0.0;
    double reduce_us = 0.0;  ///< 0 when no path needs the reduction
    qubo::bit_vector tx_bits;
};

/// Everything one pool slot reuses across windows.  util::thread_pool::
/// for_each_slot hands a slot to one thread at a time, so none of this is
/// locked; and none of it is a statistic — which slot runs a frame never
/// changes what the frame computes.
struct worker {
    paths::workspace ws;
    std::optional<fec::codec> codec;     ///< coded links: trellis tables + decode scratch
    qubo::bit_vector coded;              ///< the current frame's coded bits
    std::vector<std::uint8_t> use_bits;  ///< one use's zero-padded coded bits
    std::vector<double> llrs;            ///< one attempt's frame LLRs
    std::vector<double> combined_llrs;   ///< chase-combining accumulator
    std::vector<std::uint8_t> decoded;   ///< retransmission decode

    /// The current frame's uses, attempt-major ([attempt * uses_per_frame +
    /// j]): synthesised once per attempt and reduced at most once, however
    /// many paths run the attempt.
    std::vector<wireless::mimo_instance> uses;
    std::vector<detect::ml_qubo> mqs;
    std::vector<double> reduce_us;
    std::size_t attempts_synthesized = 0;          ///< of the current frame
    std::size_t attempts_reduced = 0;              ///< of the current frame
    std::vector<paths::path_result> retx_results;  ///< one retransmission's per-use results
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
    std::vector<std::size_t> first_solve_stage(num_paths);
    std::vector<std::uint8_t> path_needs_qubo(num_paths, 0);
    for (std::size_t p = 0; p < num_paths; ++p) {
        path_report& path = report.paths[p];
        path.kind = paths[p]->spec().kind;
        path.name = paths[p]->name();
        path.spec = canonical[p];
        path.service = stage_trace("service", sample_stride);
        path_needs_qubo[p] = paths[p]->needs_qubo() ? 1 : 0;

        path.stages.emplace_back("synth", sample_stride);
        path.stage_servers.push_back(1);
        if (paths[p]->needs_qubo()) {
            path.stages.emplace_back("qubo", sample_stride);
            path.stage_servers.push_back(1);
        }
        first_solve_stage[p] = path.stages.size();
        const auto solve_names = paths[p]->stage_names();
        const auto solve_servers = paths[p]->stage_servers();
        for (std::size_t s = 0; s < solve_names.size(); ++s) {
            path.stages.emplace_back(solve_names[s], sample_stride);
            path.stage_servers.push_back(solve_servers[s]);
        }
        if (config.fec) path.fec.emplace();
        if (config.arq) {
            path.arq.emplace();
            path.arq->retx_service = stage_trace("retx service", sample_stride);
        }
    }

    // Stream bases (link/use_kernel.h).  Attempt r of use u retransmits from
    // derive(arq_*).derive(u [* num_paths + p]).derive(r) — globally indexed,
    // so ARQ counters inherit the thread-count / stream-block invariance, and
    // disjoint from the open-loop streams, so enabling ARQ never perturbs the
    // golden open-loop statistics.
    const util::rng synth_base = util::rng(config.seed).derive(stream_domains::synthesis);
    const util::rng solve_base = util::rng(config.seed).derive(stream_domains::solve);
    const util::rng arq_synth_base = util::rng(config.seed).derive(stream_domains::arq_synthesis);
    const util::rng arq_solve_base = util::rng(config.seed).derive(stream_domains::arq_solve);
    const util::rng fec_base = util::rng(config.seed).derive(stream_domains::fec);

    // Channel resolution: the spec, or the i.i.d. process of
    // `config.channel` standing in for it — byte-identical to the plain
    // channel draw by the channel_spec.h contract.
    const use_kernel kernel(
        config.channel_spec ? *config.channel_spec
                            : wireless::channel_spec::parse(wireless::to_string(config.channel)),
        config.mod, config.num_users, config.noiseless, config.snr_db, config.seed);

    // Frame geometry.  An uncoded frame is one channel use.  One coded frame
    // (rows x cols interleaved bits) spans ceil(coded_bits / bits_per_use)
    // consecutive channel uses with the final use zero-padded; the stream
    // must carry whole frames.
    const bool coded = config.fec.has_value();
    const std::size_t bits_per_use = kernel.bits_per_use();
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

    // The stream is processed in fixed-size windows of whole frames.  Each
    // window is one pool pass, one task per frame, filling disjoint slots;
    // then the window is folded serially in use and frame order into the
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
    std::vector<use_record> records(block);
    std::vector<paths::path_result> cells(num_paths * block);  // path-major: [p * block + i]
    std::vector<qubo::bit_vector> frame_info(frames_per_block);
    std::vector<frame_cell> frame_cells(num_paths * frames_per_block);  // [p * frames + f]

    // Per-path length of the error run currently open in the serial fold —
    // carried across windows so burst statistics are stream_block-invariant.
    std::vector<std::uint64_t> error_run(num_paths, 0);

    // One pool for the whole stream and one worker per pool slot;
    // num_threads == 1 degrades to a serial loop on worker 0.
    std::optional<util::thread_pool> pool;
    if (config.num_threads != 1 && frames_per_block > 1) pool.emplace(config.num_threads);
    std::vector<worker> workers(pool ? pool->size() : 1);
    for (worker& w : workers) {
        if (coded) w.codec.emplace(*config.fec);
        w.uses.resize((max_retx + 1) * uses_per_frame);
        w.mqs.resize((max_retx + 1) * uses_per_frame);
        w.reduce_us.resize((max_retx + 1) * uses_per_frame);
        w.retx_results.resize(uses_per_frame);
    }

    for (std::size_t base = 0; base < config.num_uses; base += block) {
        const std::size_t window = std::min(block, config.num_uses - base);
        const std::size_t window_frames = window / uses_per_frame;

        // Attempt `attempt` of frame fi on the air, at worker offset
        // attempt * uses_per_frame: synthesised when the first path asks
        // for it and QUBO-reduced when the first QUBO path does (paths ask
        // for attempts in order, so two counters track what exists).
        // Attempt 0 draws from the use's synthesis stream at t = u; attempt
        // r from the (use, attempt) ARQ stream, the fading process one lag
        // later per attempt.  A coded frame puts the same coded bits on the
        // air every attempt; an uncoded use draws its own.
        // Attempt r of use j is on the air at t = u0 + m, m = j + r, which
        // the frame first reached with attempt 0 of use m when m < F (uses
        // per frame), else with attempt m - F + 1 of use F - 1.  A
        // correlated H(t) is a pure function of t that draws nothing from
        // the use's stream, so when that first instance is an earlier one,
        // the use goes on the air through its true channel — the same
        // instance, bit for bit.  Attempt 0 is its own first instance.
        const auto on_air = [&](worker& w, std::size_t fi, std::size_t attempt, bool reduce) {
            const std::size_t i0 = fi * uses_per_frame;
            const std::size_t k0 = attempt * uses_per_frame;
            if (attempt == w.attempts_synthesized) {
                for (std::size_t j = 0; j < uses_per_frame; ++j) {
                    const std::size_t u = base + i0 + j;
                    util::rng rng = attempt == 0 ? synth_base.derive(u)
                                                 : arq_synth_base.derive(u).derive(attempt);
                    std::span<const std::uint8_t> bits;
                    if (coded) {
                        pad_use_bits(w.coded, j, bits_per_use, w.use_bits);
                        bits = w.use_bits;
                    }
                    const std::size_t m = j + attempt;
                    const std::size_t first =
                        m < uses_per_frame
                            ? m
                            : (m - uses_per_frame + 1) * uses_per_frame + uses_per_frame - 1;
                    const double t =
                        static_cast<double>(u) + static_cast<double>(attempt) * retx_lag_uses;
                    const double synth_us =
                        kernel.correlated() && first != k0 + j
                            ? kernel.synthesize_given(rng, w.uses[first].true_channel(), bits,
                                                      w.uses[k0 + j])
                            : kernel.synthesize(rng, t, bits, w.uses[k0 + j]);
                    if (attempt == 0) {
                        records[i0 + j].synth_us = synth_us;
                        records[i0 + j].reduce_us = 0.0;
                        records[i0 + j].tx_bits = w.uses[j].tx_bits;
                    }
                }
                ++w.attempts_synthesized;
            }
            if (reduce && attempt == w.attempts_reduced) {
                for (std::size_t j = 0; j < uses_per_frame; ++j) {
                    w.reduce_us[k0 + j] = use_kernel::reduce(w.uses[k0 + j], w.ws, w.mqs[k0 + j]);
                    if (attempt == 0) records[i0 + j].reduce_us = w.reduce_us[j];
                }
                ++w.attempts_reduced;
            }
            return k0;
        };

        // The frame's verdict on one attempt.  Beyond which bits go on the
        // air and whether soft output is computed, this is the only place
        // coded and uncoded frames differ: an uncoded frame (one use) is
        // judged on its hard bits against the bits that use carried; a coded
        // frame decodes its uses' LLRs — chase-combined across attempts
        // under combining=chase, each attempt alone otherwise — against the
        // frame's information bits.  Decoding is a pure function of the
        // LLRs and the combining order is the attempt order, so verdicts
        // inherit the invariances.
        const auto judge = [&](worker& w, std::size_t fi, std::size_t attempt, std::size_t k0,
                               std::span<const paths::path_result> results,
                               std::vector<std::uint8_t>& decoded) {
            if (!coded) return results[0].bits == w.uses[k0].tx_bits;
            w.llrs.resize(coded_bits);
            for (std::size_t j = 0; j < uses_per_frame; ++j) {
                gather_use_llrs(results[j].llrs, j, bits_per_use, coded_bits, w.llrs);
            }
            if (chase && attempt == 0) w.combined_llrs = w.llrs;
            if (chase && attempt > 0) wireless::accumulate_llrs(w.llrs, w.combined_llrs);
            w.codec->decode_frame(chase && attempt > 0 ? w.combined_llrs : w.llrs, decoded);
            return decoded == frame_info[fi];
        };

        // One frame end to end.  A coded frame first draws its information
        // bits from the fec stream (indexed by GLOBAL frame) and encodes +
        // interleaves them once.  Then every path runs its chain: attempt 0,
        // then attempt r while arq::needs_retx asks for it, each detected
        // with solve streams indexed by the GLOBAL (use * num_paths + p) —
        // and the attempt — so no statistic depends on which worker, and
        // hence which workspace, runs the frame.  Attempt 0's results land
        // in the window's cells for the fold; a retransmission's service
        // counts the reduction time its own pipeline would spend.
        const auto run_frame = [&](worker& w, std::size_t fi) {
            const std::size_t i0 = fi * uses_per_frame;
            if (coded) {
                util::rng info_rng = fec_base.derive(base / uses_per_frame + fi);
                info_rng.bits_into(w.codec->info_bits(), frame_info[fi]);
                w.codec->encode_frame(frame_info[fi], w.coded);
            }
            w.attempts_synthesized = 0;
            w.attempts_reduced = 0;
            for (std::size_t p = 0; p < num_paths; ++p) {
                frame_cell& fc = frame_cells[p * frames_per_block + fi];
                const bool wants_qubo = path_needs_qubo[p] != 0;
                fc.wrong = 0;
                fc.retx_service_us.clear();  // keeps capacity across windows
                std::size_t attempt = 0;
                bool ok = false;
                for (;;) {
                    const std::size_t k0 = on_air(w, fi, attempt, wants_qubo);
                    const std::span<paths::path_result> results =
                        attempt == 0 ? std::span<paths::path_result>(cells).subspan(
                                           p * block + i0, uses_per_frame)
                                     : std::span<paths::path_result>(w.retx_results);
                    double service_us = 0.0;
                    for (std::size_t j = 0; j < uses_per_frame; ++j) {
                        const std::size_t solve_cell = (base + i0 + j) * num_paths + p;
                        util::rng solve_rng =
                            attempt == 0 ? solve_base.derive(solve_cell)
                                         : arq_solve_base.derive(solve_cell).derive(attempt);
                        use_kernel::detect(*paths[p], w.uses[k0 + j],
                                           wants_qubo ? &w.mqs[k0 + j] : nullptr, solve_rng,
                                           w.ws, coded, results[j]);
                        if (wants_qubo) service_us += w.reduce_us[k0 + j];
                        for (const auto& st : results[j].stages) service_us += st.service_us;
                    }
                    ok = judge(w, fi, attempt, k0, results, attempt == 0 ? fc.decoded0 : w.decoded);
                    if (!ok) ++fc.wrong;
                    if (attempt == 0) {
                        fc.first_ok = ok;
                    } else {
                        fc.retx_service_us.push_back(service_us);
                    }
                    if (!config.arq || !arq::needs_retx(*config.arq, ok, attempt)) break;
                    ++attempt;
                }
                fc.attempts = attempt + 1;
                fc.final_ok = ok;
            }
        };
        if (pool && window_frames > 1) {
            pool->for_each_slot(window_frames, [&](std::size_t slot, std::size_t fi) {
                run_frame(workers[slot], fi);
            });
        } else {
            for (std::size_t fi = 0; fi < window_frames; ++fi) run_frame(workers[0], fi);
        }

        // Serial aggregation in use order, then in frame order: the merged
        // statistics never depend on the scheduling order above.
        for (std::size_t i = 0; i < window; ++i) {
            const use_record& rec = records[i];
            report.synthesis.add(rec.synth_us);
            report.reduction.add(rec.reduce_us);
            for (std::size_t p = 0; p < num_paths; ++p) {
                path_report& path = report.paths[p];
                const paths::path_result& cell = cells[p * block + i];
                path.ber.add_frame(rec.tx_bits, cell.bits);
                if (cell.bits == rec.tx_bits) {
                    ++path.exact_frames;
                    error_run[p] = 0;
                } else {
                    ++path.bursts.error_frames;
                    if (++error_run[p] == 1) ++path.bursts.bursts;
                    path.bursts.longest_burst =
                        std::max(path.bursts.longest_burst, error_run[p]);
                }
                path.sum_ml_cost += cell.ml_cost;

                path.stages[0].add(rec.synth_us);
                double service_sum = 0.0;
                if (path_needs_qubo[p] != 0) {  // has the shared qubo stage
                    path.stages[1].add(rec.reduce_us);
                    service_sum += rec.reduce_us;
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

    // Tandem-queue replays of the measured traces: one setup per path
    // drives both the open-loop replay and, under ARQ, the closed-loop one,
    // so the two see identical load.
    for (std::size_t p = 0; p < num_paths; ++p) {
        path_report& path = report.paths[p];
        const replay_setup setup = build_replay(path, config);
        util::rng arrivals_rng(config.seed);  // unused by deterministic arrivals
        path.replay = pipeline::simulate(setup.stages, config.num_uses,
                                         {.interarrival_us = setup.interarrival_us},
                                         arrivals_rng, setup.options);
        if (config.arq) {
            // Closed loop: failed frames re-enter the chain.  `auto`
            // deadlines resolve to the open-loop replay's p99 — the ARQ
            // loop driven by the replay's own latency budget.  With FEC on,
            // the measured attempt_error_rate is frame-based while the
            // replayed jobs are still per-use attempts — a documented
            // approximation (the coded frame's uses share fate).
            arq_path_report& ar = *path.arq;
            const double resolved_deadline_us = config.arq->deadline_auto
                                                    ? path.replay.p99_latency_us
                                                    : config.arq->deadline_us;
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
