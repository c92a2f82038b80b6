// Shared pieces of the repository benchmark driver: command-line options,
// the result a workload hands back, small statistics helpers, and the layer
// clock that times the benchmark's own calls into each library layer.
//
// The driver never instruments src/: every span it records wraps a call the
// benchmark itself makes into a public function of a layer (synthesis, QUBO
// reduction, a detection path, the codec, the replays, the wire codec).
#ifndef HCQ_PERFBENCH_BENCH_H
#define HCQ_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Fixed, very small run (a few hundred uses / requests) for the
    /// benchmark's own tests: every metric is still produced and checked.
    bool tiny = false;
    /// Corrupts one compared statistic so the correctness check must fail.
    bool inject_mismatch = false;
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload run hands back to main(): the correctness tally, the
/// metrics of the result line, and extra human-readable rows.
struct outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;  ///< the result line's metrics, in order
    std::vector<metric> info;     ///< printed in the table only

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string name, double value, std::string unit) {
        info.push_back({std::move(name), value, std::move(unit)});
    }
    /// Counts one correctness comparison.
    void check(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }
};

[[nodiscard]] outcome run_link(const options& opt);
[[nodiscard]] outcome run_serve(const options& opt);

/// Names of the per-layer metrics every traced run prints (0 where a layer
/// is idle on the workload), in output order, with units.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fills every per-layer metric `out` lacks with 0, and orders them as
/// per_layer_metrics() lists them.
void complete_per_layer(outcome& out);

// --- statistics -----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
/// Figures come from the quietest decile of short measurements (runs, or
/// 50 ms windows), so a neighbour's burst on a shared host does not
/// read as a regression; a slower program moves every decile.
inline constexpr double quiet_quantile = 0.1;

/// The host's current speed relative to a quiet reference host: a fixed
/// compute kernel of the benchmark's own (small complex matrix products,
/// normal draws, a sort — the kind of work the detectors do) is timed three
/// times, and the speed is reference_kernel_quiet_s over the fastest time.
/// Call it while no program thread runs.  Timings multiplied by it (rates
/// divided by it) read as on the quiet host, so a neighbour that slows the
/// whole host for minutes does not read as a regression; a slower program
/// does, since the kernel never changes with it.
[[nodiscard]] double host_speed();

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

using clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
}

// --- layer clock ----------------------------------------------------------

/// Accumulated time and call count of one traced layer call site.
struct layer_total {
    double ns = 0.0;
    std::uint64_t calls = 0;

    [[nodiscard]] double mean_us() const { return calls == 0 ? 0.0 : ns / 1e3 / double(calls); }
};

/// Spans around the benchmark's own calls into the library, aggregated per
/// layer in memory.  Disabled, time() only runs the call, so the untraced
/// and traced drivers share one code path.
class layer_clock {
public:
    explicit layer_clock(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// The accumulator for `layer`; references stay valid for the clock's
    /// lifetime.
    [[nodiscard]] layer_total& slot(const std::string& layer) { return totals_[layer]; }

    template <typename F>
    decltype(auto) time(layer_total& slot, F&& call) {
        if (!enabled_) return call();
        struct stop {
            layer_total& s;
            clock::time_point t0 = clock::now();
            ~stop() {
                s.ns += std::chrono::duration<double, std::nano>(clock::now() - t0).count();
                ++s.calls;
            }
        } guard{slot};
        return call();
    }

    /// Runs `call` (returning void) and returns its wall time in µs, which
    /// is also accumulated into `slot` when enabled — for call sites whose
    /// duration the program itself records, such as per-use stage times.
    template <typename F>
    double timed_us(layer_total& slot, F&& call) {
        const clock::time_point t0 = clock::now();
        call();
        const double ns = std::chrono::duration<double, std::nano>(clock::now() - t0).count();
        if (enabled_) {
            slot.ns += ns;
            ++slot.calls;
        }
        return ns / 1e3;
    }

    /// Adds another clock's totals into this one.
    void merge(const layer_clock& other) {
        for (const auto& [name, t] : other.totals_) {
            layer_total& mine = totals_[name];
            mine.ns += t.ns;
            mine.calls += t.calls;
        }
    }

    /// Sum of every layer's time, ns.
    [[nodiscard]] double total_ns() const {
        double sum = 0.0;
        for (const auto& [name, t] : totals_) sum += t.ns;
        return sum;
    }

    [[nodiscard]] const std::map<std::string, layer_total>& totals() const { return totals_; }

private:
    bool enabled_;
    std::map<std::string, layer_total> totals_;
};

}  // namespace perfbench

#endif  // HCQ_PERFBENCH_BENCH_H
