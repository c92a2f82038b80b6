// Tiny command-line / environment flag parsing for benches and examples.
//
// Flags have the form `--name=value` or `--name value`; boolean flags may be
// bare (`--verbose`).  Environment variables named HCQ_<NAME> (upper-cased,
// '-' -> '_') act as defaults overridable on the command line.
#ifndef HCQ_UTIL_CLI_H
#define HCQ_UTIL_CLI_H

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hcq::util {

/// Parsed flag set with typed, defaulted access.
class flag_set {
public:
    flag_set() = default;

    /// Parses argv; throws std::invalid_argument on malformed input
    /// (non-flag positional arguments are collected, not rejected).
    flag_set(int argc, const char* const argv[]);

    [[nodiscard]] std::string get_string(const std::string& name,
                                         const std::string& fallback) const;
    /// A count or size: throws std::invalid_argument naming the flag unless
    /// the whole value is a non-negative integer that fits std::size_t.
    [[nodiscard]] std::size_t get_size(const std::string& name, std::size_t fallback) const;
    /// Throws std::invalid_argument naming the flag unless the whole value
    /// parses as a number.
    [[nodiscard]] double get_double(const std::string& name, double fallback) const;
    [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

    /// True if the flag appeared on the command line or in the environment.
    [[nodiscard]] bool has(const std::string& name) const;

    /// Positional (non-flag) arguments in order of appearance.
    [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
        return positional_;
    }

private:
    [[nodiscard]] std::optional<std::string> lookup(const std::string& name) const;

    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/// Benchmark scale presets.  Benches default to `quick` (seconds-scale,
/// shape-preserving sample counts); `full` approaches the paper's sample
/// counts; `smoke` is for CI.
enum class bench_scale { smoke, quick, full };

/// Reads --scale / HCQ_SCALE; accepts "smoke", "quick", "full".
[[nodiscard]] bench_scale parse_scale(const flag_set& flags);

/// Multiplier applied to per-bench base sample counts.
[[nodiscard]] double scale_factor(bench_scale scale) noexcept;

/// Human-readable name of a scale preset.
[[nodiscard]] const char* to_string(bench_scale scale) noexcept;

}  // namespace hcq::util

#endif  // HCQ_UTIL_CLI_H
