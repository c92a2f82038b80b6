// End-to-end link-layer bench: sustained throughput, ARQ-budget latency,
// drop rate and BER for each detection path, measured through the whole
// channel-use -> QUBO -> solve -> BER system (link/link_sim.h) rather than
// on frozen solver corpora.
//
// This is the system-level complement to the figure benches: it answers
// "what does the paper's pipelined hybrid structure deliver at the link
// layer, with stage times measured from the real code paths?"
//
// Extra flags: --uses=<base count> (scaled by --scale), --load=<offered
// load>, --threads=<n>, --paths=<spec list> (paths::registry spec strings,
// e.g. zf,kbest:width=16,gsra,kxra:k=4), --buffer=<slots per replay stage;
// 0 = unbounded>, --policy=block|drop-oldest|drop-newest, and
// --arq deadline_us=<auto|none|us>,max_retx=<n> to close the retransmission
// loop (adds residual-FER / retx-rate / miss-rate / goodput columns), and
// --channel <spec> (wireless/channel_spec.h — e.g. jakes:doppler_hz=5 or
// watterson:taps=2,spread_hz=1,est_err=0.05) for correlated fading /
// imperfect CSI; unset keeps the default i.i.d. rayleigh draw bit-for-bit,
// so the bench baselines remain valid.  --fec <spec> (fec/code_spec.h —
// e.g. k7 or k5:interleave=8x8) closes the coded link: paths emit per-bit
// LLRs, soft Viterbi decodes interleaved frames (adds coded-FER / coded-BER
// columns; uses are rounded down to whole coded frames per scenario), and
// with --arq the retransmission loop chase-combines LLRs across attempts.
// With --json the table is emitted inside the self-describing envelope
// {git_sha, bench, config, rows} — the format the CI bench-smoke job
// uploads as a BENCH_*.json artifact and the bench-regression gate diffs
// against bench/baselines/.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fec/code_spec.h"
#include "link/link_sim.h"
#include "paths/registry.h"

int main(int argc, char** argv) {
    using namespace hcq;
    const bench::context ctx(argc, argv);
    ctx.banner("end-to-end link simulation",
               "Figure 2 (pipelined structure) with measured stage latencies; "
               "Section 4.2 workload");

    const std::size_t uses = ctx.scaled(ctx.flags.get_size("uses", 100));
    const double load = ctx.flags.get_double("load", 0.9);
    const std::size_t threads = ctx.flags.get_size("threads", 0);
    const auto path_specs =
        paths::parse_spec_list(ctx.flags.get_string("paths", "zf,kbest,sphere,sa,gsra"));
    const auto buffer = ctx.flags.get_size("buffer", 256);
    const auto policy = pipeline::parse_backpressure(ctx.flags.get_string("policy", "block"));
    const bool arq_on = ctx.flags.has("arq");
    const arq::arq_config arq_config =
        arq_on ? arq::parse_arq(ctx.flags.get_string("arq", "")) : arq::arq_config{};
    std::optional<wireless::channel_spec> channel;
    if (ctx.flags.has("channel")) {
        channel = wireless::channel_spec::parse(ctx.flags.get_string("channel", ""));
    }
    std::optional<fec::code_spec> fec_spec;
    if (ctx.flags.has("fec")) {
        // A bare `--fec` parses to "true" (util::flag_set); it selects the
        // default k7 code, same idiom as a bare `--arq`.
        const std::string spec = ctx.flags.get_string("fec", "k7");
        fec_spec = fec::code_spec::parse(spec.empty() || spec == "true" ? "k7" : spec);
    }

    struct scenario {
        std::size_t users;
        wireless::modulation mod;
    };
    std::vector<scenario> scenarios{{2, wireless::modulation::qam16},
                                    {4, wireless::modulation::qpsk},
                                    {4, wireless::modulation::qam16}};
    if (ctx.scale == util::bench_scale::full) {
        scenarios.push_back({8, wireless::modulation::qam16});
    }

    std::vector<std::string> headers{"users", "mod", "path", "BER", "exact uses",
                                     "svc mean us", "thrpt use/ms", "p50 lat us",
                                     "p99 lat us", "drop rate", "wall s"};
    if (fec_spec) headers.insert(headers.end(), {"coded FER", "coded BER"});
    if (arq_on) {
        headers.insert(headers.end(),
                       {"resid FER", "retx rate", "miss rate", "goodput use/ms"});
    }
    util::table t(std::move(headers));
    for (const auto& s : scenarios) {
        link::link_config config;
        config.num_uses = uses;
        config.num_users = s.users;
        config.mod = s.mod;
        if (fec_spec) {
            // The coded link wants whole frames; round the scenario's use
            // count down to the frame multiple (at least one frame).
            const std::size_t bits_per_use = s.users * wireless::bits_per_symbol(s.mod);
            const std::size_t uses_per_frame =
                (fec_spec->coded_bits() + bits_per_use - 1) / bits_per_use;
            config.num_uses = std::max(uses_per_frame, uses - uses % uses_per_frame);
            config.fec = fec_spec;
        }
        config.paths = path_specs;
        config.offered_load = load;
        config.num_threads = threads;
        config.seed = ctx.seed;
        config.buffer_capacity = buffer == 0 ? pipeline::unbounded_capacity : buffer;
        config.policy = policy;
        if (arq_on) config.arq = arq_config;
        config.channel_spec = channel;

        const util::timer clock;
        const auto report = link::run_link_simulation(config);
        const double wall_s = clock.elapsed_s();

        for (const auto& path : report.paths) {
            // Per-path service downstream of the shared synthesis stage.
            std::vector<std::string> row{std::to_string(s.users),
                                         wireless::to_string(s.mod),
                                         path.name,
                                         util::format_double(path.ber.rate(), 5),
                                         std::to_string(path.exact_frames),
                                         util::format_double(path.service.mean_us()),
                                         util::format_double(path.replay.throughput_per_us *
                                                             1000.0),
                                         util::format_double(path.replay.p50_latency_us),
                                         util::format_double(path.replay.p99_latency_us),
                                         util::format_double(path.replay.drop_rate, 5),
                                         util::format_double(wall_s, 2)};
            if (fec_spec) {
                const auto& fr = *path.fec;
                row.push_back(util::format_double(fr.coded_fer(), 5));
                row.push_back(util::format_double(fr.info_ber.rate(), 5));
            }
            if (arq_on) {
                const auto& ar = *path.arq;
                row.push_back(util::format_double(ar.counters.residual_fer(), 5));
                row.push_back(util::format_double(ar.counters.retx_rate(), 4));
                row.push_back(util::format_double(ar.replay_stats.miss_rate(), 5));
                row.push_back(util::format_double(ar.replay_stats.goodput_per_us * 1000.0));
            }
            t.add_row(std::move(row));
        }
    }
    ctx.emit(t);
    return 0;
}
