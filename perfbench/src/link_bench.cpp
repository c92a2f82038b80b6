// The link workloads: link_linear, link_hybrid and link_coded_arq.
//
// End-to-end run (--trace 0): cycles of link::run_link_simulation on a
// fixed batch of uses for each of 8 input seeds, at 1 and then 2 worker
// threads.  Every run is compared with its seed's first run: its
// deterministic statistics (BER counts, exact frames, ML cost sum, bursts,
// coded frame errors, ARQ counters) must match bit for bit.
//
// Traced run (--trace 1): traced_link() below does the same work as
// run_link_simulation — same derived streams, same windows and chunks, same
// calls in the same order, serially — with a span around each call into a
// layer's public function.  Its statistics must equal run_link_simulation's
// for the same seed, or the run fails.
#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "arq/arq.h"
#include "bench.h"
#include "detect/transform.h"
#include "fec/codec.h"
#include "link/link_sim.h"
#include "metrics/stats.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "pipeline/pipeline.h"
#include "util/rng.h"
#include "wireless/channel.h"
#include "wireless/channel_spec.h"
#include "wireless/mimo.h"
#include "wireless/soft.h"

namespace perfbench {
namespace {

using namespace hcq;

/// One link workload.  The sizes are literal (never scaled) and are the ones
/// perfbench/README.md and BENCHMARK.json state.
struct link_workload {
    const char* name;
    const char* paths;
    const char* channel;  ///< channel spec, nullptr = i.i.d. Rayleigh
    const char* fec;      ///< code spec, nullptr = uncoded
    const char* arq;      ///< ARQ spec, nullptr = open loop
    std::size_t rep_uses;   ///< uses per timed run_link_simulation call
    std::size_t warm_uses;  ///< uses per warm-up call in each set-up
};

constexpr link_workload link_workloads[] = {
    {"link_linear", "zf,mmse,kbest", nullptr, nullptr, nullptr, 4096, 512},
    {"link_hybrid", "tabu,gsra:reads=8", nullptr, nullptr, nullptr, 256, 32},
    {"link_coded_arq", "mmse,kbest", "jakes:doppler_hz=5,est_err=0.02", "k7",
     "deadline_us=auto,max_retx=2,combining=chase", 1024, 128},
};

constexpr std::size_t setup_rounds = 7;
constexpr std::size_t batch_seed_cycle = 8;   ///< input seeds of the throughput batches
constexpr std::size_t min_batch_cycles = 3;

link::link_config make_config(const link_workload& w, std::uint64_t seed, std::size_t uses,
                              std::size_t threads) {
    link::link_config c;
    c.num_uses = uses;
    c.num_users = 4;
    c.mod = wireless::modulation::qam16;
    c.paths = paths::parse_spec_list(w.paths);
    c.num_threads = threads;
    c.seed = seed;
    if (w.channel != nullptr) c.channel_spec = wireless::channel_spec::parse(w.channel);
    if (w.fec != nullptr) c.fec = fec::code_spec::parse(w.fec);
    if (w.arq != nullptr) c.arq = arq::parse_arq(w.arq);
    return c;
}

/// Every deterministic statistic of a report, as one comparable vector.
std::vector<std::uint64_t> fingerprint(const link::link_report& r) {
    std::vector<std::uint64_t> fp;
    for (const auto& p : r.paths) {
        fp.insert(fp.end(), {p.ber.errors(), p.ber.total_bits(), p.exact_frames,
                             std::bit_cast<std::uint64_t>(p.sum_ml_cost), p.bursts.error_frames,
                             p.bursts.bursts, p.bursts.longest_burst});
        if (p.fec) {
            fp.insert(fp.end(), {p.fec->frames, p.fec->frame_errors, p.fec->info_ber.errors(),
                                 p.fec->info_ber.total_bits()});
        }
        if (p.arq) {
            const arq::counters& c = p.arq->counters;
            fp.insert(fp.end(), {c.frames, c.attempts, c.wrong_attempts, c.corrected_frames,
                                 c.residual_errors});
        }
    }
    return fp;
}

/// The program processed every offered use on every path.
bool complete(const link::link_report& r, std::size_t uses) {
    const std::size_t bits = uses * r.config.num_users * wireless::bits_per_symbol(r.config.mod);
    return std::all_of(r.paths.begin(), r.paths.end(), [&](const link::path_report& p) {
        return p.ber.total_bits() == bits;
    });
}

// --- the traced driver ----------------------------------------------------

/// Coded bits of use `j` of a frame, zero-padded to a whole channel use.
void pad_use_bits(const qubo::bit_vector& coded, std::size_t j, std::size_t bits_per_use,
                  std::vector<std::uint8_t>& out) {
    out.assign(bits_per_use, 0);
    const std::size_t lo = j * bits_per_use;
    const std::size_t n = std::min(bits_per_use, coded.size() - lo);
    std::copy(coded.begin() + static_cast<std::ptrdiff_t>(lo),
              coded.begin() + static_cast<std::ptrdiff_t>(lo + n), out.begin());
}

void gather_use_llrs(const std::vector<double>& llrs, std::size_t j, std::size_t bits_per_use,
                     std::size_t coded_bits, std::vector<double>& frame) {
    const std::size_t lo = j * bits_per_use;
    const std::size_t n = std::min(bits_per_use, coded_bits - lo);
    std::copy(llrs.begin(), llrs.begin() + static_cast<std::ptrdiff_t>(n),
              frame.begin() + static_cast<std::ptrdiff_t>(lo));
}

struct replay_setup {
    std::vector<pipeline::stage> stages;
    double interarrival_us = 0.0;
    pipeline::sim_options options;
};

replay_setup build_replay(const link::path_report& path, const link::link_config& config) {
    replay_setup setup;
    double bottleneck_us = 0.0;
    for (std::size_t s = 0; s < path.stages.size(); ++s) {
        const auto& trace = path.stages[s];
        const std::size_t servers = path.stage_servers[s];
        setup.stages.push_back(pipeline::stage::from_trace(trace.name(), trace.replay_sample())
                                   .with_servers(servers));
        metrics::running_stats sample_stats;
        for (const double v : trace.replay_sample()) sample_stats.add(v);
        bottleneck_us = std::max(bottleneck_us, sample_stats.mean() / static_cast<double>(servers));
    }
    setup.interarrival_us = std::max(bottleneck_us / config.offered_load, 1e-3);
    setup.options = pipeline::sim_options{.buffer_capacity = config.buffer_capacity,
                                          .policy = config.policy,
                                          .record_latencies = false};
    return setup;
}

/// Per-(frame, path) outcome of the coded chain.
struct fec_cell {
    qubo::bit_vector decoded0;
    std::size_t attempts = 1;
    std::size_t wrong = 0;
    bool first_ok = true;
    bool final_ok = true;
    std::vector<double> retx_service_us;
};

/// run_link_simulation's work at one thread, with a span around every call
/// into a layer.  Covers the benchmark's configurations: uncoded open loop,
/// and coded frames with or without hybrid ARQ.
link::link_report traced_link(const link::link_config& config, layer_clock& clk) {
    if (config.arq && !config.fec) {
        throw std::invalid_argument("traced_link: uncoded ARQ is not a benchmark workload");
    }
    const auto paths = paths::registry::make_all(config.paths);
    const std::size_t num_paths = paths.size();
    const bool needs_qubo = std::any_of(paths.begin(), paths.end(),
                                        [](const auto& path) { return path->needs_qubo(); });
    const std::size_t sample_stride =
        (config.num_uses + link::stage_trace::replay_sample_capacity - 1) /
        link::stage_trace::replay_sample_capacity;

    layer_total& derive_slot = clk.slot("util.rng.derive");
    layer_total& bits_slot = clk.slot("util.rng.bits");
    layer_total& synth_slot = clk.slot("wireless.synth");
    layer_total& reduce_slot = clk.slot("detect.qubo_reduce");
    layer_total& encode_slot = clk.slot("fec.encode");
    layer_total& decode_slot = clk.slot("fec.decode");
    layer_total& combine_slot = clk.slot("wireless.accumulate_llrs");
    layer_total& replay_slot = clk.slot("pipeline.simulate");
    layer_total& arq_replay_slot = clk.slot("arq.closed_loop_replay");

    link::link_report report;
    report.config = config;
    report.synthesis = link::stage_trace("synth", sample_stride);
    report.reduction = link::stage_trace("qubo", sample_stride);
    report.paths.resize(num_paths);
    std::vector<std::size_t> first_solve_stage(num_paths);
    std::vector<layer_total*> run_slot(num_paths);
    std::vector<layer_total*> soft_slot(num_paths);
    for (std::size_t p = 0; p < num_paths; ++p) {
        link::path_report& path = report.paths[p];
        path.kind = paths[p]->spec().kind;
        path.name = paths[p]->name();
        path.spec = paths[p]->spec().to_string();
        path.service = link::stage_trace("service", sample_stride);
        run_slot[p] = &clk.slot("paths." + path.kind + ".run");
        soft_slot[p] = &clk.slot("paths." + path.kind + ".soft");
        const auto solve_stages = paths[p]->stage_names();
        const auto solve_servers = paths[p]->stage_servers();
        path.stages.emplace_back("synth", sample_stride);
        path.stage_servers.push_back(1);
        if (paths[p]->needs_qubo()) {
            path.stages.emplace_back("qubo", sample_stride);
            path.stage_servers.push_back(1);
        }
        first_solve_stage[p] = path.stages.size();
        for (std::size_t s = 0; s < solve_stages.size(); ++s) {
            path.stages.emplace_back(solve_stages[s], sample_stride);
            path.stage_servers.push_back(solve_servers[s]);
        }
        if (config.fec) path.fec.emplace();
        if (config.arq) {
            path.arq.emplace();
            path.arq->retx_service = link::stage_trace("retx service", sample_stride);
        }
    }

    namespace domains = link::stream_domains;
    const util::rng synth_base = util::rng(config.seed).derive(domains::synthesis);
    const util::rng solve_base = util::rng(config.seed).derive(domains::solve);
    const util::rng arq_synth_base = util::rng(config.seed).derive(domains::arq_synthesis);
    const util::rng arq_solve_base = util::rng(config.seed).derive(domains::arq_solve);
    const util::rng fec_base = util::rng(config.seed).derive(domains::fec);

    const double snr_db = (config.channel_spec && config.channel_spec->snr_db)
                              ? *config.channel_spec->snr_db
                              : config.snr_db;
    const double csi_est_err = config.channel_spec ? config.channel_spec->est_err : 0.0;
    std::unique_ptr<const wireless::channel_process> process;
    if (config.channel_spec) {
        process = wireless::make_channel_process(*config.channel_spec, config.num_users,
                                                 config.num_users,
                                                 util::rng(config.seed).derive(domains::fading));
    }

    const bool coded = config.fec.has_value();
    const std::size_t bits_per_use = config.num_users * wireless::bits_per_symbol(config.mod);
    const std::size_t coded_bits = coded ? config.fec->coded_bits() : 0;
    const std::size_t uses_per_frame = coded ? (coded_bits + bits_per_use - 1) / bits_per_use : 1;
    if (config.num_uses % uses_per_frame != 0) {
        throw std::invalid_argument("traced_link: num_uses must be whole coded frames");
    }
    std::size_t block = std::min(config.stream_block, config.num_uses);
    if (coded) block = std::max(uses_per_frame, block / uses_per_frame * uses_per_frame);

    std::vector<wireless::mimo_instance> instances(block);
    std::vector<detect::ml_qubo> mqs(needs_qubo ? block : 0);
    std::vector<qubo::bit_vector> tx_bits(block);
    std::vector<double> synth_us(block, 0.0);
    std::vector<double> reduce_us(block, 0.0);
    std::vector<paths::path_result> cells(num_paths * block);
    const std::size_t frames_per_block = coded ? block / uses_per_frame : 0;
    std::vector<qubo::bit_vector> frame_info(frames_per_block);
    std::vector<qubo::bit_vector> frame_coded(frames_per_block);
    std::vector<fec_cell> fec_cells(num_paths * frames_per_block);
    std::optional<fec::codec> codec;
    if (coded) codec.emplace(*config.fec);
    std::vector<std::uint8_t> use_bits;
    std::vector<double> frame_llrs;
    std::vector<double> attempt_llrs;
    std::vector<double> combined_llrs;
    std::vector<std::uint8_t> decoded;
    paths::workspace ws;

    wireless::mimo_config mimo;
    mimo.mod = config.mod;
    mimo.num_users = config.num_users;
    mimo.num_antennas = config.num_users;
    mimo.channel = config.channel;
    mimo.noise_variance =
        config.noiseless ? 0.0
                         : wireless::noise_variance_for_snr(config.mod, config.num_users, snr_db);

    std::vector<std::uint64_t> error_run(num_paths, 0);
    constexpr std::size_t run_chunk = 64;  // link_sim.cpp's run_block chunk

    const auto derive = [&](const util::rng& base, std::uint64_t id) {
        return clk.time(derive_slot, [&] { return base.derive(id); });
    };

    for (std::size_t base = 0; base < config.num_uses; base += block) {
        const std::size_t window = std::min(block, config.num_uses - base);
        const std::size_t window_frames = coded ? window / uses_per_frame : 0;

        // Phase A: synthesis and the shared QUBO reduction.
        const auto synth_use = [&](std::size_t i, std::span<const std::uint8_t> bits) {
            const std::size_t u = base + i;
            util::rng synth_rng = derive(synth_base, u);
            wireless::mimo_instance& instance = instances[i];
            synth_us[i] = clk.timed_us(synth_slot, [&] {
                if (process) {
                    wireless::synthesize_at_coded_into(synth_rng, mimo, *process,
                                                       static_cast<double>(u), csi_est_err, bits,
                                                       instance);
                } else {
                    wireless::synthesize_coded_into(synth_rng, mimo, bits, instance);
                }
            });
            tx_bits[i] = instance.tx_bits;
            reduce_us[i] = 0.0;
            if (needs_qubo) {
                reduce_us[i] = clk.timed_us(reduce_slot, [&] {
                    detect::ml_to_qubo_into(instance, ws.detect.qubo, mqs[i]);
                });
            }
        };
        if (coded) {
            for (std::size_t fi = 0; fi < window_frames; ++fi) {
                const std::size_t f = base / uses_per_frame + fi;
                util::rng info_rng = derive(fec_base, f);
                clk.time(bits_slot, [&] { info_rng.bits_into(codec->info_bits(), frame_info[fi]); });
                clk.time(encode_slot, [&] { codec->encode_frame(frame_info[fi], frame_coded[fi]); });
                for (std::size_t j = 0; j < uses_per_frame; ++j) {
                    pad_use_bits(frame_coded[fi], j, bits_per_use, use_bits);
                    synth_use(fi * uses_per_frame + j, use_bits);
                }
            }
        } else {
            for (std::size_t i = 0; i < window; ++i) synth_use(i, {});
        }

        // Phase B: every path detects every use through run_block, in chunks.
        const std::size_t chunks_per_path = (window + run_chunk - 1) / run_chunk;
        for (std::size_t task = 0; task < num_paths * chunks_per_path; ++task) {
            const std::size_t p = task / chunks_per_path;
            const std::size_t c0 = (task % chunks_per_path) * run_chunk;
            const std::size_t n = std::min(run_chunk, window - c0);
            std::vector<util::rng> rngs;
            rngs.reserve(n);
            for (std::size_t j = 0; j < n; ++j) {
                rngs.push_back(derive(solve_base, (base + c0 + j) * num_paths + p));
            }
            std::vector<paths::path_context> ctxs;
            ctxs.reserve(n);
            for (std::size_t j = 0; j < n; ++j) {
                ctxs.push_back({instances[c0 + j], needs_qubo ? &mqs[c0 + j] : nullptr, rngs[j],
                                &ws});
            }
            const auto out = std::span<paths::path_result>(cells).subspan(p * block + c0, n);
            clk.time(*run_slot[p], [&] { paths[p]->run_block(ctxs, out); });
            if (coded) {
                for (std::size_t j = 0; j < n; ++j) {
                    clk.time(*soft_slot[p], [&] { paths[p]->soft_output(ctxs[j], out[j]); });
                }
            }
        }

        // Phase C (coded): attempt-0 decode and the hybrid-ARQ chain.
        for (std::size_t fi = 0; fi < window_frames; ++fi) {
            const std::size_t i0 = fi * uses_per_frame;
            const std::size_t max_retx = config.arq ? config.arq->max_retx : 0;
            struct retx_attempt {
                wireless::mimo_instance instance;
                detect::ml_qubo mq;
                double reduce_us = 0.0;
                bool reduced = false;
            };
            std::vector<std::optional<retx_attempt>> shared(uses_per_frame * max_retx);
            const auto attempt_for = [&](std::size_t j, std::size_t attempt,
                                         bool needs_reduction) -> retx_attempt& {
                auto& slot = shared[j * max_retx + (attempt - 1)];
                if (!slot) {
                    const std::size_t u = base + i0 + j;
                    util::rng retx_synth = derive(derive(arq_synth_base, u), attempt);
                    slot.emplace();
                    pad_use_bits(frame_coded[fi], j, bits_per_use, use_bits);
                    clk.time(synth_slot, [&] {
                        if (process) {
                            wireless::synthesize_at_coded_into(
                                retx_synth, mimo, *process,
                                static_cast<double>(u) + static_cast<double>(attempt),
                                csi_est_err, use_bits, slot->instance);
                        } else {
                            wireless::synthesize_coded_into(retx_synth, mimo, use_bits,
                                                            slot->instance);
                        }
                    });
                }
                if (needs_reduction && !slot->reduced) {
                    slot->reduce_us = clk.timed_us(reduce_slot, [&] {
                        detect::ml_to_qubo_into(slot->instance, ws.detect.qubo, slot->mq);
                    });
                    slot->reduced = true;
                }
                return *slot;
            };
            for (std::size_t p = 0; p < num_paths; ++p) {
                fec_cell& fc = fec_cells[p * frames_per_block + fi];
                frame_llrs.resize(coded_bits);
                for (std::size_t j = 0; j < uses_per_frame; ++j) {
                    gather_use_llrs(cells[p * block + i0 + j].llrs, j, bits_per_use, coded_bits,
                                    frame_llrs);
                }
                clk.time(decode_slot, [&] { codec->decode_frame(frame_llrs, fc.decoded0); });
                bool ok = fc.decoded0 == frame_info[fi];
                fc.first_ok = ok;
                fc.wrong = ok ? 0 : 1;
                fc.retx_service_us.clear();
                std::size_t attempt = 0;
                if (config.arq) {
                    const bool chase = config.arq->combining == arq::combining_mode::chase;
                    if (chase) combined_llrs = frame_llrs;
                    const bool wants_qubo = paths[p]->needs_qubo();
                    while (arq::needs_retx(*config.arq, ok, attempt)) {
                        ++attempt;
                        double service_sum = 0.0;
                        attempt_llrs.resize(coded_bits);
                        for (std::size_t j = 0; j < uses_per_frame; ++j) {
                            const std::size_t u = base + i0 + j;
                            retx_attempt& retx = attempt_for(j, attempt, wants_qubo);
                            if (wants_qubo) service_sum += retx.reduce_us;
                            util::rng retx_solve =
                                derive(derive(arq_solve_base, u * num_paths + p), attempt);
                            const paths::path_context retx_ctx{
                                retx.instance, wants_qubo ? &retx.mq : nullptr, retx_solve, &ws};
                            paths::path_result result =
                                clk.time(*run_slot[p], [&] { return paths[p]->run(retx_ctx); });
                            clk.time(*soft_slot[p],
                                     [&] { paths[p]->soft_output(retx_ctx, result); });
                            for (const auto& st : result.stages) service_sum += st.service_us;
                            gather_use_llrs(result.llrs, j, bits_per_use, coded_bits,
                                            attempt_llrs);
                        }
                        if (chase) {
                            clk.time(combine_slot, [&] {
                                wireless::accumulate_llrs(attempt_llrs, combined_llrs);
                            });
                            clk.time(decode_slot,
                                     [&] { codec->decode_frame(combined_llrs, decoded); });
                        } else {
                            clk.time(decode_slot, [&] { codec->decode_frame(attempt_llrs, decoded); });
                        }
                        ok = decoded == frame_info[fi];
                        if (!ok) ++fc.wrong;
                        fc.retx_service_us.push_back(service_sum);
                    }
                }
                fc.attempts = attempt + 1;
                fc.final_ok = ok;
            }
        }

        // Serial fold in use order, then in frame order.
        for (std::size_t i = 0; i < window; ++i) {
            report.synthesis.add(synth_us[i]);
            report.reduction.add(reduce_us[i]);
            for (std::size_t p = 0; p < num_paths; ++p) {
                link::path_report& path = report.paths[p];
                const paths::path_result& cell = cells[p * block + i];
                path.ber.add_frame(tx_bits[i], cell.bits);
                if (cell.bits == tx_bits[i]) {
                    ++path.exact_frames;
                    error_run[p] = 0;
                } else {
                    ++path.bursts.error_frames;
                    if (++error_run[p] == 1) ++path.bursts.bursts;
                    path.bursts.longest_burst = std::max(path.bursts.longest_burst, error_run[p]);
                }
                path.sum_ml_cost += cell.ml_cost;
                path.stages[0].add(synth_us[i]);
                double service_sum = 0.0;
                if (paths[p]->needs_qubo()) {
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
                link::path_report& path = report.paths[p];
                const fec_cell& fc = fec_cells[p * frames_per_block + fi];
                ++path.fec->frames;
                if (!fc.first_ok) ++path.fec->frame_errors;
                path.fec->info_ber.add_frame(frame_info[fi], fc.decoded0);
                if (config.arq) {
                    path.arq->counters.add_frame(fc.attempts, fc.wrong, fc.first_ok, fc.final_ok);
                    for (const double s_us : fc.retx_service_us) path.arq->retx_service.add(s_us);
                }
            }
        }
    }

    // The measured-trace replays: open loop, then ARQ closed loop.
    for (std::size_t p = 0; p < num_paths; ++p) {
        link::path_report& path = report.paths[p];
        const replay_setup setup = build_replay(path, config);
        util::rng arrivals_rng(config.seed);
        path.replay = clk.time(replay_slot, [&] {
            return pipeline::simulate(setup.stages, config.num_uses,
                                      {.interarrival_us = setup.interarrival_us}, arrivals_rng,
                                      setup.options);
        });
        if (config.arq) {
            link::arq_path_report& ar = *path.arq;
            const double deadline_us = config.arq->deadline_auto ? path.replay.p99_latency_us
                                                                 : config.arq->deadline_us;
            util::rng replay_rng(config.seed);
            auto closed = clk.time(arq_replay_slot, [&] {
                return arq::closed_loop_replay(setup.stages, config.num_uses,
                                               ar.counters.attempt_error_rate(), deadline_us,
                                               config.arq->max_retx,
                                               {.interarrival_us = setup.interarrival_us},
                                               replay_rng, setup.options);
            });
            ar.replay_stats = closed.stats;
            ar.closed_replay = std::move(closed.replay);
        }
    }
    return report;
}

// --- the two runs -----------------------------------------------------------

struct sizes {
    std::size_t rep = 0;
    std::size_t warm = 0;
    std::size_t batch_seeds = batch_seed_cycle;
    std::size_t min_cycles = min_batch_cycles;
};

double timed_s(const auto& call) {
    const clock::time_point t0 = clock::now();
    call();
    return seconds_since(t0);
}

/// The k-th input seed of a run: inputs vary across batches, so a run's
/// figures average over channel realisations.
std::uint64_t input_seed(std::uint64_t seed, std::size_t k) {
    return util::rng(seed).derive(k).seed();
}

outcome link_end_to_end(const link_workload& w, const sizes& n, const options& opt) {
    outcome out;

    // Set-up, several times: path construction, fading process, pool start
    // and the warm-up runs at both thread counts.
    std::vector<double> setup_s;
    for (std::size_t k = 0; k < setup_rounds; ++k) {
        const double speed = host_speed();
        setup_s.push_back(speed * timed_s([&] {
            (void)link::run_link_simulation(make_config(w, opt.seed, n.warm, 1));
            (void)link::run_link_simulation(make_config(w, opt.seed, n.warm, 2));
        }));
    }

    // Each cycle runs every batch seed at 1 then 2 threads; times are
    // corrected by the host speed measured before the cycle.  Every run must
    // reproduce its seed's first run exactly.
    std::vector<std::vector<double>> wall[2];
    std::vector<link::link_config> configs[2];
    for (std::size_t t = 0; t < 2; ++t) {
        wall[t].resize(n.batch_seeds);
        for (std::size_t k = 0; k < n.batch_seeds; ++k) {
            configs[t].push_back(make_config(w, input_seed(opt.seed, k), n.rep, t + 1));
        }
    }
    std::vector<std::optional<std::vector<std::uint64_t>>> reference(n.batch_seeds);
    std::vector<double> speeds;  ///< per cycle
    const clock::time_point start = clock::now();
    std::size_t cycles = 0;
    for (; cycles < n.min_cycles || seconds_since(start) < opt.seconds; ++cycles) {
        const double speed = speeds.emplace_back(host_speed());
        for (std::size_t k = 0; k < n.batch_seeds; ++k) {
            for (std::size_t t = 0; t < 2; ++t) {
                std::optional<link::link_report> report;
                wall[t][k].push_back(speed * timed_s([&] {
                    report.emplace(link::run_link_simulation(configs[t][k]));
                }));
                out.check(complete(*report, n.rep));
                auto fp = fingerprint(*report);
                if (!reference[k]) {
                    reference[k] = std::move(fp);
                    continue;
                }
                if (opt.inject_mismatch && t == 1 && cycles == 0 && k == 0) fp.front() ^= 1;
                out.check(fp == *reference[k]);
            }
        }
    }

    // Throughput from each seed's fastest-decile run, summed over the seeds:
    // on a shared host the slower runs measure other tenants, not the
    // program.  The median-based figures are printed beside it.
    const auto rate = [&](std::size_t t, double q) {
        double seconds = 0.0;
        for (const auto& runs : wall[t]) seconds += percentile(runs, q);
        return static_cast<double>(n.rep * n.batch_seeds) / seconds;
    };
    out.add("uses_per_s", rate(0, quiet_quantile), "uses/s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    // Two threads are checked for correctness but not gated: their speed-up
    // swings between 1x and 2x with the host's load (tabu,gsra worst).
    out.note("uses_per_s_2t", rate(1, quiet_quantile), "uses/s");
    out.note("uses_per_s.median_run", rate(0, 0.5), "uses/s");
    out.note("uses_per_s_2t.median_run", rate(1, 0.5), "uses/s");
    out.note("host_speed.median", median(speeds), "ratio");
    out.note("host_speed.min", percentile(speeds, 0.0), "ratio");
    out.note("host_speed.max", percentile(speeds, 1.0), "ratio");
    out.note("uses_per_batch", static_cast<double>(n.rep), "uses");
    out.note("batch_seeds", static_cast<double>(n.batch_seeds), "seeds");
    out.note("runs_per_seed_and_thread_count", static_cast<double>(cycles), "runs");
    return out;
}

outcome link_per_layer(const link_workload& w, const sizes& n, const options& opt) {
    outcome out;
    (void)link::run_link_simulation(make_config(w, opt.seed, n.warm, 1));

    layer_clock total(true);
    std::vector<double> wall_untraced;
    std::vector<double> wall_traced;
    std::vector<double> wall_2t;
    std::vector<double> unattributed;
    std::uint64_t arq_attempts = 0;
    std::uint64_t arq_frames = 0;
    std::size_t num_paths = 0;
    const clock::time_point start = clock::now();
    const double budget_s = 0.85 * opt.seconds;
    for (std::size_t run = 0; run < n.batch_seeds || seconds_since(start) < budget_s; ++run) {
        const std::uint64_t seed = input_seed(opt.seed, run % n.batch_seeds);
        const link::link_config config1 = make_config(w, seed, n.rep, 1);
        std::optional<link::link_report> program;
        wall_untraced.push_back(
            timed_s([&] { program.emplace(link::run_link_simulation(config1)); }));
        layer_clock clk(true);
        std::optional<link::link_report> traced;
        wall_traced.push_back(timed_s([&] { traced.emplace(traced_link(config1, clk)); }));
        auto fp = fingerprint(*traced);
        if (opt.inject_mismatch && run == 0) fp.front() ^= 1;
        out.check(fp == fingerprint(*program));
        unattributed.push_back((wall_untraced.back() - clk.total_ns() / 1e9) /
                               wall_untraced.back());
        total.merge(clk);
        std::optional<link::link_report> two;
        wall_2t.push_back(timed_s(
            [&] { two.emplace(link::run_link_simulation(make_config(w, seed, n.rep, 2))); }));
        out.check(fingerprint(*two) == fingerprint(*program));
        num_paths = program->paths.size();
        for (const auto& p : program->paths) {
            if (!p.arq) continue;
            arq_attempts += p.arq->counters.attempts;
            arq_frames += p.arq->counters.frames;
        }
    }

    // A derive plus its first draw (which runs the engine's first refill).
    std::vector<double> derive_ns;
    const util::rng base(opt.seed);
    for (int batch = 0; batch < 5; ++batch) {
        constexpr int draws = 4000;
        double sink = 0.0;
        const double s = timed_s([&] {
            for (int i = 0; i < draws; ++i) {
                util::rng r = base.derive(static_cast<std::uint64_t>(batch * draws + i));
                sink += r.uniform();
            }
        });
        if (sink < 0.0) throw std::logic_error("uniform() < 0");
        derive_ns.push_back(s * 1e9 / draws);
    }

    const double runs = static_cast<double>(wall_traced.size());
    const double uses = static_cast<double>(n.rep) * runs;
    double traced_ns = 0.0;
    for (const double s : wall_traced) traced_ns += 1e9 * s;
    const auto& t = total.totals();
    const auto ns_of = [&](const std::string& layer) {
        const auto it = t.find(layer);
        return it == t.end() ? 0.0 : it->second.ns;
    };
    const auto mean_us = [&](const std::string& layer) {
        const auto it = t.find(layer);
        return it == t.end() ? 0.0 : it->second.mean_us();
    };
    out.add("util.rng.derive_ns", median(derive_ns), "ns");
    out.add("wireless.synth_us", mean_us("wireless.synth"), "us");
    out.add("wireless.synth_share", ns_of("wireless.synth") / traced_ns, "ratio");
    out.add("detect.qubo_reduce_us", mean_us("detect.qubo_reduce"), "us");
    for (const auto& spec : paths::parse_spec_list(w.paths)) {
        const std::string layer = "paths." + spec.kind;
        out.add(layer + ".run_us", ns_of(layer + ".run") / 1e3 / uses, "us");
        if (w.fec != nullptr) out.add(layer + ".soft_us", ns_of(layer + ".soft") / 1e3 / uses, "us");
    }
    out.add("fec.encode_us", mean_us("fec.encode"), "us");
    out.add("fec.decode_us", mean_us("fec.decode"), "us");
    out.add("arq.attempts_per_frame",
            arq_frames == 0 ? 0.0 : double(arq_attempts) / double(arq_frames), "count");
    out.add("arq.replay_ms", ns_of("arq.closed_loop_replay") / 1e6 / runs, "ms");
    out.add("pipeline.replay_ms", ns_of("pipeline.simulate") / 1e6 / runs, "ms");
    out.add("pipeline.replay_ns_per_job",
            ns_of("pipeline.simulate") / (uses * static_cast<double>(num_paths)), "ns");
    const double one = static_cast<double>(n.rep) / percentile(wall_untraced, quiet_quantile);
    const double two = static_cast<double>(n.rep) / percentile(wall_2t, quiet_quantile);
    out.add("link.uses_per_s", one, "uses/s");
    out.add("link.uses_per_s_2t", two, "uses/s");
    out.add("link.scaling_eff", two / (2.0 * one), "ratio");
    out.add("link.unattributed_frac", median(unattributed), "ratio");
    out.add("link.trace_overhead_frac",
            (median(wall_traced) - median(wall_untraced)) / median(wall_untraced), "ratio");

    for (const auto& [layer, lt] : t) {
        out.note(layer + ".ms_per_run", lt.ns / 1e6 / runs, "ms");
    }
    out.note("traced_runs", runs, "runs");
    out.note("uses_per_run", static_cast<double>(n.rep), "uses");
    return out;
}

}  // namespace

outcome run_link(const options& opt) {
    const link_workload* w = nullptr;
    for (const auto& candidate : link_workloads) {
        if (opt.workload == candidate.name) w = &candidate;
    }
    if (w == nullptr) throw std::invalid_argument("unknown link workload '" + opt.workload + "'");
    sizes n{.rep = w->rep_uses, .warm = w->warm_uses};
    if (opt.tiny) {
        // Whole 8-use coded frames; a handful of runs.
        n = sizes{.rep = 64, .warm = 16, .batch_seeds = 2, .min_cycles = 2};
    }
    return opt.trace ? link_per_layer(*w, n, opt) : link_end_to_end(*w, n, opt);
}

}  // namespace perfbench
