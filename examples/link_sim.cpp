// End-to-end link simulation: a stream of channel uses flowing through
// wireless synthesis -> QUBO reduction -> any set of registered detection
// paths side by side, with measured per-stage wall times replayed through
// the Figure-2 tandem-queue pipeline under bounded stage buffers and a
// selectable backpressure policy.
//
// This is the system view the figure benches do not give: BER per detector
// on the same uses, measured (not synthetic) stage service times, and the
// sustained throughput / ARQ-budget latency / drop rate each detection path
// would deliver at the configured offered load.
//
// The stream aggregates in constant memory (fixed-size digests + bounded
// replay samples; see link/link_sim.h), so million-use runs are routine:
//     ./examples/link_sim --uses 1000000 --paths zf,sa
//
// Paths are spec strings resolved through paths::registry — run with --help
// for the full listing of kinds and their keys.  Per-path knobs ride inside
// the spec: `--paths zf,kbest:width=16,gsra:reads=40,sp=0.35` is three
// paths (a key=value segment always continues the preceding spec), and
// `--paths kxra:k=4` serves the hybrid stream with 4 round-robin annealers.
//
// The ARQ loop closes with --arq: frames with wrong detected bits are
// re-solved on fresh derived-RNG channel uses up to max_retx times (residual
// FER / retx rate, bit-identical at any thread count), and the measured
// traces replay CLOSED loop — failures re-enter the chain as retransmission
// load, judged against the deadline (deadline_us=auto uses the open-loop
// replay's p99):
//     ./examples/link_sim --paths gsra,kxra:k=4 --arq deadline_us=auto,max_retx=2
//
// Realistic channels ride the --channel spec (wireless/channel_spec.h):
// time-correlated Jakes/Watterson fading, imperfect CSI, and a per-spec SNR
// override.  At low Doppler errors arrive in bursts and ARQ retransmissions
// land inside the fade that failed them:
//     ./examples/link_sim --channel jakes:doppler_hz=5 --arq
//     ./examples/link_sim --channel watterson:taps=2,spread_hz=1,est_err=0.05
//
// The coded link closes the soft-information chain with --fec
// (fec/code_spec.h): every detection path emits per-bit LLRs
// (paths::detection_path::soft_output), frames are convolutionally encoded
// and block-interleaved across channel uses, and a soft Viterbi decoder
// turns the LLRs into coded FER / information BER beside the raw detection
// BER.  With --arq the retransmission loop runs per coded frame with chase
// combining by default (LLRs accumulate across attempts before re-decoding;
// combining=plain decodes each attempt's LLRs alone):
//     ./examples/link_sim --fec k7 --channel jakes:doppler_hz=5 --arq
//     ./examples/link_sim --fec k5:interleave=8x8 --paths zf,kbest
//
// Usage: ./examples/link_sim
//   [--uses=120] [--users=4] [--mod=qam16] [--snr=16] [--noiseless]
//   [--channel=rayleigh|random-phase|jakes:...|watterson:...]
//   [--fec=k3|k5|k7[:interleave=RxC]]
//   [--paths=zf,kbest,sphere,sa,gsra] [--load=0.9] [--threads=0] [--seed=1]
//   [--buffer=256] [--policy=block|drop-oldest|drop-newest]
//   [--arq deadline_us=<auto|none|us>,max_retx=<n>,combining=<chase|plain>]
//   [--csv] [--help]
#include <algorithm>
#include <iostream>

#include "arq/arq.h"
#include "fec/code_spec.h"
#include "link/link_sim.h"
#include "paths/registry.h"
#include "util/cli.h"

int main(int argc, char** argv) try {
    using namespace hcq;
    const util::flag_set flags(argc, argv);

    if (flags.get_bool("help", false)) {
        std::cout << "link_sim — end-to-end link simulation "
                     "(channel use -> QUBO -> solve -> BER)\n\n"
                     "flags: --uses=120 --users=4 --mod=qam16 --snr=16 --noiseless\n"
                     "       --paths=zf,kbest,sphere,sa,gsra --load=0.9 --threads=0\n"
                     "       --seed=1 --buffer=256 (replay slots per stage, 0 = unbounded)\n"
                     "       --policy=block|drop-oldest|drop-newest --csv\n"
                     "       --channel <spec>  realistic channel: correlated fading,\n"
                     "         multipath, imperfect CSI (unset = the default i.i.d.\n"
                     "         rayleigh draw, bit-for-bit)\n"
                     "       --arq key=value,...  (keys below)\n"
                     "         closes the retransmission loop: wrong frames re-solve on\n"
                     "         fresh channel uses; the trace replay feeds failures back as\n"
                     "         retransmission load (deadline_us=auto = open-loop p99)\n"
                     "       --fec <spec>  coded link: paths emit per-bit LLRs\n"
                     "         (soft_output), frames are convolutionally encoded and\n"
                     "         interleaved across uses, soft Viterbi decodes them; adds\n"
                     "         coded FER / info BER columns, and --arq combines LLRs\n"
                     "         across retransmissions (chase combining; combining=plain\n"
                     "         decodes each attempt alone)\n\n"
                  << wireless::channel_spec::help() << "\n"
                  << fec::code_spec::help() << "\n"
                  << arq::help() << "\n"
                  << paths::registry::help();
        return 0;
    }

    // These pre-registry flags moved into the gsra spec; reject them loudly
    // rather than silently running with different knobs than requested.
    for (const char* moved : {"reads", "sp"}) {
        if (flags.has(moved)) {
            std::cerr << "link_sim: --" << moved
                      << " moved into the path spec: use --paths "
                         "gsra:reads=40,sp=0.35 (see --help)\n";
            return 2;
        }
    }

    link::link_config config;
    config.num_uses = flags.get_size("uses", 120);
    config.num_users = flags.get_size("users", 4);
    config.mod = wireless::parse_modulation(flags.get_string("mod", "qam16"));
    config.snr_db = flags.get_double("snr", 16.0);
    config.noiseless = flags.get_bool("noiseless", false);
    if (config.noiseless) config.channel = wireless::channel_model::unit_gain_random_phase;
    if (flags.has("channel")) {
        config.channel_spec = wireless::channel_spec::parse(flags.get_string("channel", ""));
    }
    if (flags.has("paths")) config.paths = paths::parse_spec_list(flags.get_string("paths", ""));
    config.offered_load = flags.get_double("load", 0.9);
    config.num_threads = flags.get_size("threads", 0);
    config.seed = flags.get_size("seed", 1);
    const auto buffer = flags.get_size("buffer", 256);
    config.buffer_capacity = buffer == 0 ? pipeline::unbounded_capacity : buffer;
    config.policy = pipeline::parse_backpressure(flags.get_string("policy", "block"));
    if (flags.has("arq")) config.arq = arq::parse_arq(flags.get_string("arq", ""));
    if (flags.has("fec")) {
        // A bare `--fec` parses to "true" (util::flag_set); it selects the
        // default k7 code, same idiom as a bare `--arq`.
        const std::string spec = flags.get_string("fec", "k7");
        config.fec = fec::code_spec::parse(spec.empty() || spec == "true" ? "k7" : spec);
    }
    const bool csv = flags.get_bool("csv", false);

    std::cout << "== end-to-end link simulation ==\n"
              << config.num_uses << " channel uses, " << config.num_users << "x"
              << config.num_users << " " << wireless::to_string(config.mod) << ", "
              << (config.channel_spec
                      ? "channel " + config.channel_spec->to_string() +
                            (config.noiseless ? " (noiseless)" : "")
                      : config.noiseless
                          ? std::string("noiseless random-phase channel (paper corpus)")
                          : "Rayleigh + AWGN at " + util::format_double(config.snr_db, 1) +
                                " dB")
              << ", offered load " << util::format_double(config.offered_load, 2) << "\n"
              << "replay buffers: "
              << (config.buffer_capacity == pipeline::unbounded_capacity
                      ? std::string("unbounded")
                      : std::to_string(config.buffer_capacity) + " slots/stage, " +
                            pipeline::to_string(config.policy))
              << "; seed " << config.seed << ", threads "
              << (config.num_threads == 0 ? std::string("hw") : std::to_string(config.num_threads))
              << "\n";
    if (config.fec) {
        const char* arq_llrs = "";
        if (config.arq) {
            arq_llrs = config.arq->combining == arq::combining_mode::chase
                           ? "; ARQ chase-combines LLRs across attempts"
                           : "; ARQ decodes each attempt's LLRs alone";
        }
        std::cout << "coded link: " << config.fec->to_string() << " ("
                  << config.fec->info_bits() << " info bits -> " << config.fec->coded_bits()
                  << " coded bits/frame; paths emit LLRs, soft Viterbi decodes" << arq_llrs
                  << ")\n";
    }
    if (config.arq) {
        std::cout << "ARQ loop: " << config.arq->to_string()
                  << " (residual FER / retx rate are bit-identical at any thread\n"
                     "count; miss rate / goodput come from the closed-loop trace replay)\n";
    }
    std::cout << "BER/exact-use statistics are bit-identical at any thread count\n\n";

    const auto report = link::run_link_simulation(config);

    const auto summary = link::summary_table(report);
    if (csv) {
        summary.print_csv(std::cout);
    } else {
        summary.print(std::cout);
    }
    std::cout << "\nsvc = measured per-use service downstream of channel synthesis;\n"
                 "thrpt / latency / drop rate / peak queue come from replaying the\n"
                 "measured stage traces through the Figure-2 tandem queue at the\n"
                 "offered load, under the configured buffers and backpressure policy.\n";

    // Per-path ARQ detail: the deterministic retransmission counters and
    // the closed-loop (feedback) replay's view of the deadline.
    if (config.arq) {
        util::table detail({"path", "deadline us", "attempts", "retx", "corrected",
                            "resid errs", "retx svc mean us", "misses", "delivered",
                            "exhausted", "lost to drops", "goodput use/ms"});
        for (const auto& path : report.paths) {
            const auto& ar = *path.arq;
            detail.add(path.name,
                       ar.replay_stats.resolved_deadline_us == arq::no_deadline
                           ? std::string("none")
                           : util::format_double(ar.replay_stats.resolved_deadline_us),
                       ar.counters.attempts, ar.counters.retransmissions(),
                       ar.counters.corrected_frames, ar.counters.residual_errors,
                       ar.retx_service.mean_us(), ar.replay_stats.deadline_misses,
                       ar.replay_stats.delivered, ar.replay_stats.exhausted,
                       ar.replay_stats.lost_to_drops,
                       ar.replay_stats.goodput_per_us * 1000.0);
        }
        std::cout << "\nARQ loop detail (attempts/retx/corrected/resid are exact and\n"
                     "thread-invariant; misses/delivered/goodput replay the measured\n"
                     "traces closed loop, retransmissions re-entering the chain):\n";
        if (csv) {
            detail.print_csv(std::cout);
        } else {
            detail.print(std::cout);
        }
    }

    // Detailed measured-trace replay for hybrid structures (paths reporting
    // a split "quantum" stage), when present — includes per-stage
    // utilisation, queue occupancy, and drops.
    for (const auto& path : report.paths) {
        const auto names = path.stage_names();
        if (std::find(names.begin(), names.end(), "quantum") == names.end()) continue;
        std::cout << "\n" << path.name << " (" << path.spec
                  << ") measured-trace pipeline replay (per stage):\n";
        const auto detail = pipeline::summary_table(path.replay, names);
        if (csv) {
            detail.print_csv(std::cout);
        } else {
            detail.print(std::cout);
        }
    }
    return 0;
} catch (const std::exception& e) {
    std::cerr << "link_sim: error: " << e.what() << "\n"
              << "run ./link_sim --help for the flag and detection-path listing\n";
    return 2;
}
