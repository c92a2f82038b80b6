// Detector-bank server: exposes the detection-path registry over loopback
// TCP (serve/tcp_server.h).  Clients send length-prefixed binary requests
// (spec string + batch size + seed + optional deadline) and get back
// detected bits, per-use ML costs, and measured stage timings; admission
// control sheds overload per the configured backpressure policy.
//
// The --paths flag pre-resolves a spec list at startup so a typo'd bank
// fails fast with the registry's help text instead of failing per request;
// --channel likewise validates a channel spec.  Requests still name their
// own spec — the flags are a fail-fast announcement, not a restriction.
//
// Usage: ./examples/detect_server
//   [--port=7788] [--workers=4] [--buffer=256]
//   [--policy=block|drop-oldest|drop-newest]
//   [--paths=kxra:k=4] [--channel=jakes:doppler_hz=5]
//   [--run_s=0 (0 = until SIGINT/SIGTERM)] [--help]
#include <atomic>
#include <csignal>
#include <iostream>

#include "paths/registry.h"
#include "serve/tcp_server.h"
#include "util/cli.h"
#include "util/timer.h"
#include "wireless/channel_spec.h"

namespace {

std::atomic<bool> interrupted{false};

void on_signal(int) { interrupted.store(true); }

}  // namespace

int main(int argc, char** argv) try {
    using namespace hcq;
    const util::flag_set flags(argc, argv);

    if (flags.get_bool("help", false)) {
        std::cout << "detect_server — detector bank over loopback TCP\n\n"
                     "flags: --port=7788 --workers=4 --buffer=256 (admission queue slots)\n"
                     "       --policy=block|drop-oldest|drop-newest\n"
                     "         block: full queue pauses socket reads (TCP backpressure)\n"
                     "         drop-newest: full queue answers BUSY immediately\n"
                     "         drop-oldest: evict the longest-waiting request with BUSY\n"
                     "       --paths=<spec,...>  pre-resolve these specs at startup\n"
                     "       --channel=<spec>    validate a channel spec at startup\n"
                     "       --run_s=0           serve for N seconds (0 = until signal)\n\n"
                  << wireless::channel_spec::help() << "\n"
                  << paths::registry::help();
        return 0;
    }

    serve::server_config config;
    const std::size_t port = flags.get_size("port", 7788);
    if (port > 65535) {
        std::cerr << "detect_server: --port must be at most 65535, got " << port << "\n";
        return 2;
    }
    config.port = static_cast<std::uint16_t>(port);
    config.num_workers = flags.get_size("workers", 4);
    config.admission_capacity = flags.get_size("buffer", 256);
    config.policy = pipeline::parse_backpressure(flags.get_string("policy", "block"));

    // Fail fast on a bad bank or channel spec before binding the port.
    if (flags.has("paths")) {
        const auto specs = paths::parse_spec_list(flags.get_string("paths", ""));
        const auto bank = paths::registry::make_all(specs);
        std::cout << "serving bank:";
        for (const auto& path : bank) std::cout << " " << path->name();
        std::cout << "\n";
    }
    if (flags.has("channel")) {
        const auto spec = wireless::channel_spec::parse(flags.get_string("channel", ""));
        std::cout << "channel spec validated: " << spec.to_string() << "\n";
    }
    const double run_s = flags.get_double("run_s", 0.0);

    serve::tcp_server server(config);
    std::cout << "detect_server listening on 127.0.0.1:" << server.port() << " ("
              << config.num_workers << " workers, admission "
              << config.admission_capacity << " slots, policy "
              << pipeline::to_string(config.policy) << ")\n";

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    const util::timer clock;
    while (!interrupted.load()) {
        if (run_s > 0.0 && clock.elapsed_s() >= run_s) break;
        util::sleep_us(50'000);
    }
    server.stop();

    const auto stats = server.stats();
    std::cout << "served_ok=" << stats.served_ok << " busy=" << stats.rejected_busy
              << " deadline=" << stats.rejected_deadline << " bad=" << stats.bad_requests
              << " error=" << stats.internal_errors << " evictions=" << stats.evictions
              << " sessions=" << stats.sessions_accepted << "\n";
    return 0;
} catch (const std::exception& e) {
    std::cerr << "detect_server: error: " << e.what() << "\n"
              << "run ./detect_server --help for flags and the path listing\n";
    return 2;
}
