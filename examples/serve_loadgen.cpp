// Load generator for the detector-bank server: drives open-loop Poisson or
// closed-loop traffic over real loopback sockets and reports goodput,
// reject rate, and tail latency (serve/client.h).
//
// With --port=0 (the default) it self-hosts: an in-process tcp_server is
// spun up on an ephemeral port, loaded, and torn down — a one-command
// serving smoke test for CI:
//     ./examples/serve_loadgen --mode=closed --requests=32 --uses=16
//
// Against a separately launched ./detect_server, point --port at it:
//     ./examples/serve_loadgen --port=7788 --mode=open --rps=200 --duration_s=2
//
// Usage: ./examples/serve_loadgen
//   [--port=0 (0 = self-hosted in-process server)]
//   [--mode=closed|open] [--requests=64] [--rps=100] [--duration_s=1]
//   [--connections=4] [--uses=32] [--spec=kxra:k=4] [--mod=qam16] [--users=4]
//   [--snr=16] [--noiseless] [--channel=<spec>] [--deadline_us=0] [--seed=1]
//   [--workers=4] [--buffer=256] [--policy=block|drop-oldest|drop-newest]
//   [--help]
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <utility>

#include "paths/registry.h"
#include "serve/client.h"
#include "serve/tcp_server.h"
#include "util/cli.h"
#include "wireless/channel_spec.h"

int main(int argc, char** argv) try {
    using namespace hcq;
    const util::flag_set flags(argc, argv);

    if (flags.get_bool("help", false)) {
        std::cout
            << "serve_loadgen — drive a detector-bank server over loopback TCP\n\n"
               "flags: --port=0 (0 = self-host an in-process server)\n"
               "       --mode=closed|open   closed: send/wait windows of 1;\n"
               "                            open: Poisson arrivals, pipelined\n"
               "       --requests=64 (closed)  --rps=100 --duration_s=1 (open)\n"
               "       --connections=4 --uses=32 (channel uses per request)\n"
               "       --spec=kxra:k=4 --mod=qam16 --users=4 --snr=16 --noiseless\n"
               "       --channel=<spec> --deadline_us=0 (per-request queue budget)\n"
               "       --seed=1\n"
               "       self-hosted server knobs: --workers=4 --buffer=256\n"
               "       --policy=block|drop-oldest|drop-newest\n\n"
            << paths::registry::help();
        return 0;
    }

    serve::loadgen_config config;
    const std::size_t port = flags.get_size("port", 0);
    if (port > 65535) {
        std::cerr << "serve_loadgen: --port must be at most 65535, got " << port << "\n";
        return 2;
    }
    config.port = static_cast<std::uint16_t>(port);
    const std::string mode = flags.get_string("mode", "closed");
    if (mode == "closed") {
        config.mode = serve::loadgen_mode::closed_loop;
    } else if (mode == "open") {
        config.mode = serve::loadgen_mode::open_loop;
    } else {
        std::cerr << "serve_loadgen: unknown --mode '" << mode
                  << "' (accepted: closed, open)\n";
        return 2;
    }
    config.num_connections = flags.get_size("connections", 4);
    config.total_requests = flags.get_size("requests", 64);
    config.offered_rps = flags.get_double("rps", 100.0);
    config.duration_s = flags.get_double("duration_s", 1.0);
    config.seed = flags.get_size("seed", 1);

    // Both travel as 32-bit request fields: reject what would wrap.
    const std::size_t uses = flags.get_size("uses", 32);
    const std::size_t users = flags.get_size("users", 4);
    for (const auto& [flag, value] : {std::pair{"uses", uses}, std::pair{"users", users}}) {
        if (value > std::numeric_limits<std::uint32_t>::max()) {
            std::cerr << "serve_loadgen: --" << flag << " must be at most "
                      << std::numeric_limits<std::uint32_t>::max() << ", got " << value << "\n";
            return 2;
        }
    }

    serve::request& req = config.request_template;
    req.seed = config.seed;
    req.num_uses = static_cast<std::uint32_t>(uses);
    req.num_users = static_cast<std::uint32_t>(users);
    req.snr_db = flags.get_double("snr", 16.0);
    req.noiseless = flags.get_bool("noiseless", false);
    req.mod = flags.get_string("mod", "qam16");
    req.spec = flags.get_string("spec", "kxra:k=4");
    req.channel = flags.get_string("channel", "");
    req.deadline_us = flags.get_double("deadline_us", 0.0);

    // Self-hosted mode: bring up an in-process server on an ephemeral port.
    std::unique_ptr<serve::tcp_server> hosted;
    if (config.port == 0) {
        serve::server_config server_config;
        server_config.port = 0;
        server_config.num_workers = flags.get_size("workers", 4);
        server_config.admission_capacity = flags.get_size("buffer", 256);
        server_config.policy =
            pipeline::parse_backpressure(flags.get_string("policy", "block"));
        hosted = std::make_unique<serve::tcp_server>(server_config);
        config.port = hosted->port();
        std::cout << "self-hosted server on 127.0.0.1:" << config.port << " ("
                  << server_config.num_workers << " workers, admission "
                  << server_config.admission_capacity << " slots, policy "
                  << pipeline::to_string(server_config.policy) << ")\n";
    }

    std::cout << "loadgen: mode=" << mode << " connections=" << config.num_connections
              << " spec=" << req.spec << " uses/request=" << req.num_uses;
    if (config.mode == serve::loadgen_mode::open_loop) {
        std::cout << " rps=" << config.offered_rps << " duration_s=" << config.duration_s;
    } else {
        std::cout << " requests=" << config.total_requests;
    }
    std::cout << "\n";

    const auto report = serve::run_loadgen(config);
    std::cout << serve::summarize(report) << "\n";

    if (hosted) {
        hosted->stop();
        const auto stats = hosted->stats();
        std::cout << "server: served_ok=" << stats.served_ok
                  << " busy=" << stats.rejected_busy
                  << " deadline=" << stats.rejected_deadline
                  << " bad=" << stats.bad_requests << " evictions=" << stats.evictions
                  << " sessions=" << stats.sessions_accepted << "\n";
    }

    // Nonzero exit when nothing got served: a smoke invocation that only
    // produced rejections (or nothing at all) should fail CI loudly.
    return report.ok > 0 ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "serve_loadgen: error: " << e.what() << "\n"
              << "run ./serve_loadgen --help for flags\n";
    return 2;
}
