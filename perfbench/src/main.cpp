// hcq_perfbench — the repository benchmark driver.
//
//   hcq_perfbench --workload <link_linear|link_hybrid|link_coded_arq|serve_slots>
//                 --seed <n> --seconds <s> --trace <0|1> [--tiny] [--inject-mismatch]
//
// Prints a human-readable table, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
// are the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones from the traced driver.  Exits 1 when any correctness
// check failed and 2 on a usage or runtime error (no result line then).
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace {

perfbench::options parse(int argc, char** argv) {
    perfbench::options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            opt.seconds = std::stod(value());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (arg == "--tiny") {
            opt.tiny = true;
        } else if (arg == "--inject-mismatch") {
            opt.inject_mismatch = true;
        } else {
            throw std::invalid_argument("unknown argument '" + arg + "'");
        }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return opt;
}

void print_row(const perfbench::metric& m) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const perfbench::options opt = parse(argc, argv);
        perfbench::outcome out;
        if (opt.workload == "serve_slots") {
            out = perfbench::run_serve(opt);
        } else if (opt.workload.rfind("link_", 0) == 0) {
            out = perfbench::run_link(opt);
        } else {
            throw std::invalid_argument("unknown workload '" + opt.workload +
                                        "' (link_linear, link_hybrid, link_coded_arq, "
                                        "serve_slots)");
        }
        if (opt.trace) perfbench::complete_per_layer(out);
        for (const auto& m : out.metrics) {
            if (!std::isfinite(m.value)) {
                throw std::runtime_error("metric " + m.name + " is not finite");
            }
        }

        std::printf("workload %s  seed %llu  trace %d\n", opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
        std::printf(" %s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
        for (const auto& m : out.metrics) print_row(m);
        std::printf(" details:\n");
        for (const auto& m : out.info) print_row(m);
        const double error_frac =
            out.attempted == 0 ? 0.0 : double(out.failed) / double(out.attempted);
        std::printf(" correctness: %llu checks, %llu failed, error_frac %.6g\n",
                    static_cast<unsigned long long>(out.attempted),
                    static_cast<unsigned long long>(out.failed), error_frac);

        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                    out.failed == 0 ? "true" : "false",
                    static_cast<unsigned long long>(out.attempted),
                    static_cast<unsigned long long>(out.failed));
        for (std::size_t i = 0; i < out.metrics.size(); ++i) {
            const auto& m = out.metrics[i];
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                        m.name.c_str(), m.value, m.unit.c_str());
        }
        std::printf("}}\n");
        std::fflush(stdout);
        return out.failed == 0 && out.attempted > 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::cerr << "hcq_perfbench: " << e.what() << "\n";
        return 2;
    }
}
