// Serving front end under load — goodput, reject rate, and tail latency of
// the detector-bank TCP server (src/serve/) as offered load sweeps from
// comfortable to past saturation.
//
// The paper's Section-3 pipeline argument is about sustaining successive
// channel uses through a hybrid structure; this bench closes the loop at
// the system boundary: real loopback sockets, a kxra device bank behind the
// server's workers, bounded admission, and an open-loop Poisson load generator.
// Below capacity, goodput tracks offered load and rejects stay at zero;
// past capacity, goodput plateaus at the bank's service rate and the
// admission policy sheds the excess as BUSY — the 503-style behaviour the
// serve layer exists to provide.  Capacity is first measured with a short
// closed-loop calibration run, so the sweep's load points are
// machine-independent multiples of the bank's actual service rate.
//
// Flags (beyond the common --scale/--seed/--csv/--json):
//   --spec=kxra:k=4    detection-path spec the requests name
//   --uses=32          channel uses per request
//   --workers=4        server worker threads
//   --capacity=8       admission-queue slots (small, to make shedding visible)
//   --connections=4    loadgen connections
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/client.h"
#include "serve/tcp_server.h"

int main(int argc, char** argv) {
    using namespace hcq;
    const bench::context ctx(argc, argv);
    ctx.banner("Serving front end: goodput / reject rate / tail latency vs offered load",
               "Kim et al., HotNets'20, Section 3 (pipeline, taken to the wire)");

    const std::string spec = ctx.flags.get_string("spec", "kxra:k=4");
    const std::size_t uses_flag = ctx.flags.get_size("uses", 32);
    if (uses_flag > std::numeric_limits<std::uint32_t>::max()) {
        std::cerr << "bench_serve: --uses must be at most "
                  << std::numeric_limits<std::uint32_t>::max() << ", got " << uses_flag << "\n";
        return 2;
    }
    const auto uses = static_cast<std::uint32_t>(uses_flag);
    const auto workers = ctx.flags.get_size("workers", 4);
    const auto capacity = ctx.flags.get_size("capacity", 8);
    const auto connections = ctx.flags.get_size("connections", 4);

    serve::server_config server_config;
    server_config.port = 0;
    server_config.num_workers = workers;
    server_config.admission_capacity = capacity;
    server_config.policy = pipeline::backpressure::drop_newest;
    serve::tcp_server server(server_config);

    serve::loadgen_config base;
    base.port = server.port();
    base.num_connections = connections;
    base.seed = ctx.seed;
    base.request_template.seed = ctx.seed;
    base.request_template.num_uses = uses;
    base.request_template.spec = spec;

    // Calibrate the bank's service rate with a short closed-loop run.
    serve::loadgen_config calib = base;
    calib.mode = serve::loadgen_mode::closed_loop;
    calib.num_connections = workers;  // one window per worker saturates the bank
    calib.total_requests = ctx.scaled(32);
    const auto calib_report = serve::run_loadgen(calib);
    const double capacity_rps =
        calib_report.goodput_uses_per_s() / static_cast<double>(uses);
    if (!ctx.json) {
        std::cout << "calibration (closed loop, " << calib.total_requests
                  << " requests): " << serve::summarize(calib_report) << "\n"
                  << "measured capacity ~" << util::format_double(capacity_rps, 1)
                  << " requests/s\n\n";
    }

    const double duration_s = std::max(0.25, 1.0 * util::scale_factor(ctx.scale));
    util::table t({"load x capacity", "offered rps", "sent", "ok", "busy", "deadline",
                   "reject frac", "goodput use/s", "latency p50 us", "latency p99 us",
                   "queue wait p99 us"});
    for (const double load : {0.5, 0.8, 1.1, 1.5}) {
        serve::loadgen_config config = base;
        config.mode = serve::loadgen_mode::open_loop;
        config.offered_rps = std::max(1.0, load * capacity_rps);
        config.duration_s = duration_s;
        // Distinct tenants per load point keep every request's derived
        // stream unique across the sweep.
        config.tenant_base = 1 + static_cast<std::uint64_t>(load * 100.0);
        const auto report = serve::run_loadgen(config);
        t.add(load, config.offered_rps, report.sent, report.ok, report.busy,
              report.deadline,
              report.reject_fraction(), report.goodput_uses_per_s(),
              report.latency.p50(), report.latency.p99(), report.queue_wait.p99());
    }
    ctx.emit(t);
    server.stop();
    return 0;
}
