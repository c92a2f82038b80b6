#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <random>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1) return upper;
    const double lower = *std::max_element(values.begin(),
                                           values.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lower + upper);
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        std::min(values.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    return values[index];
}

namespace {

/// The reference kernel's time on a quiet 4-vCPU x86-64 host (Release
/// build); host_speed() is 1 there.
constexpr double reference_kernel_quiet_s = 3.0e-3;

double reference_kernel_s() {
    std::mt19937_64 engine(12345);
    std::normal_distribution<double> normal;
    constexpr std::size_t n = 8;
    std::vector<std::complex<double>> a(n * n);
    std::vector<std::complex<double>> b(n * n);
    std::vector<double> norms(n * n);
    double sink = 0.0;
    const clock::time_point t0 = clock::now();
    for (int iteration = 0; iteration < 300; ++iteration) {
        for (std::size_t i = 0; i < n * n; ++i) {
            a[i] = {normal(engine), normal(engine)};
            b[i] = {normal(engine), normal(engine)};
        }
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                std::complex<double> acc{};
                for (std::size_t k = 0; k < n; ++k) acc += a[i * n + k] * b[k * n + j];
                norms[i * n + j] = std::norm(acc);
            }
        }
        std::sort(norms.begin(), norms.end());
        sink += norms[n * n / 2];
    }
    const double s = seconds_since(t0);
    if (!(sink > 0.0)) throw std::logic_error("reference kernel produced no output");
    return s;
}

}  // namespace

double host_speed() {
    double fastest = reference_kernel_s();
    for (int i = 0; i < 2; ++i) fastest = std::min(fastest, reference_kernel_s());
    return reference_kernel_quiet_s / fastest;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"util.rng.derive_ns", "ns"},
        {"wireless.synth_us", "us"},
        {"wireless.synth_share", "ratio"},
        {"detect.qubo_reduce_us", "us"},
        {"paths.zf.run_us", "us"},
        {"paths.mmse.run_us", "us"},
        {"paths.kbest.run_us", "us"},
        {"paths.tabu.run_us", "us"},
        {"paths.gsra.run_us", "us"},
        {"paths.mmse.soft_us", "us"},
        {"paths.kbest.soft_us", "us"},
        {"fec.encode_us", "us"},
        {"fec.decode_us", "us"},
        {"arq.attempts_per_frame", "count"},
        {"arq.replay_ms", "ms"},
        {"pipeline.replay_ms", "ms"},
        {"pipeline.replay_ns_per_job", "ns"},
        {"link.uses_per_s", "uses/s"},
        {"link.uses_per_s_2t", "uses/s"},
        {"link.scaling_eff", "ratio"},
        {"link.unattributed_frac", "ratio"},
        {"link.trace_overhead_frac", "ratio"},
        {"serve.encode_us", "us"},
        {"serve.decode_us", "us"},
        {"serve.run_batch_us", "us"},
        {"serve.queue_wait_us.p50", "us"},
        {"serve.queue_wait_us.p99", "us"},
        {"serve.server_compute_us", "us"},
        {"serve.overhead_us.p50", "us"},
        {"serve.busy_frac", "ratio"},
        {"serve.deadline_frac", "ratio"},
        {"serve.gen_late_us.p99", "us"},
        {"serve.lat_p50_us", "us"},
        {"serve.lat_p99_us", "us"},
        {"serve.sustained_rps", "req/s"},
    };
    return names;
}

void complete_per_layer(outcome& out) {
    std::vector<metric> ordered;
    for (const auto& [name, unit] : per_layer_metrics()) {
        const auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                                     [&](const metric& m) { return m.name == name; });
        ordered.push_back(it != out.metrics.end() ? *it : metric{name, 0.0, unit});
    }
    out.metrics = std::move(ordered);
}

}  // namespace perfbench
