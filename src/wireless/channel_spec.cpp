#include "wireless/channel_spec.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/spec.h"
#include "wireless/fading.h"

namespace hcq::wireless {
namespace {

// The channels-layer vocabulary for the shared util::spec grammar: every
// historical error text ("channels: bad spec '<text>': ...") is reproduced
// verbatim.
const util::spec::grammar& channel_grammar() {
    static const util::spec::grammar g{"channels", "channel kind"};
    return g;
}

/// Accepted keys per kind; the source of truth for validation, canonical
/// to_string output, and error messages.
struct kind_info {
    const char* name;
    bool correlated;
    std::vector<const char*> keys;
};

const std::vector<kind_info>& kind_table() {
    static const std::vector<kind_info> table = {
        {"jakes", true, {"doppler_hz", "use_rate_hz", "sinusoids", "est_err", "snr_db"}},
        {"random-phase", false, {"est_err", "snr_db"}},
        {"rayleigh", false, {"est_err", "snr_db"}},
        {"watterson",
         true,
         {"taps", "spread_hz", "doppler_hz", "use_rate_hz", "sinusoids", "est_err", "snr_db"}},
    };
    return table;
}

std::string join(const std::vector<const char*>& items) {
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out += ", ";
        out += items[i];
    }
    return out;
}

std::string join_kinds() {
    std::string out;
    const auto names = channel_spec::kinds();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i != 0) out += ", ";
        out += names[i];
    }
    return out;
}

const kind_info& info_for(const std::string& kind, const std::string& text) {
    for (const auto& info : kind_table()) {
        if (kind == info.name) return info;
    }
    throw std::invalid_argument("channels: bad spec '" + text + "': unknown channel kind '" +
                                kind + "' (available: " + join_kinds() + ")");
}

[[noreturn]] void bad_spec(const std::string& text, const std::string& why) {
    util::spec::fail(channel_grammar(), text, why);
}

double parse_double(const std::string& text, const std::string& key, const std::string& raw) {
    const auto value = util::spec::parse_double_value(raw);
    if (value.has_value() && std::isfinite(*value)) return *value;
    bad_spec(text, "bad value '" + raw + "' for key '" + key + "' (expected a finite number)");
}

std::size_t parse_size(const std::string& text, const std::string& key, const std::string& raw) {
    const auto value = util::spec::parse_size_value(raw);
    if (!value.has_value()) {
        bad_spec(text, "bad value '" + raw + "' for key '" + key +
                           "' (expected a non-negative integer)");
    }
    return *value;
}

std::string format_value(double value) {
    return util::spec::format_value(value);
}

/// The checks every spec passes before a process is built, parsed or hand-
/// built: why the first failing one fails, or nullopt.  Values are checked
/// finite in the kind's key order, then against their ranges.
std::optional<std::string> range_error(const channel_spec& spec, const kind_info& info) {
    for (const std::string key : info.keys) {
        const std::optional<double> value = key == "doppler_hz"    ? spec.doppler_hz
                                            : key == "spread_hz"   ? spec.spread_hz
                                            : key == "use_rate_hz" ? spec.use_rate_hz
                                            : key == "est_err"     ? spec.est_err
                                            : key == "snr_db"      ? spec.snr_db
                                                                   : std::nullopt;
        if (value.has_value() && !std::isfinite(*value)) {
            return "bad value '" + format_value(*value) + "' for key '" + key +
                   "' (expected a finite number)";
        }
    }
    if (spec.est_err < 0.0) {
        return "est_err must be >= 0 (got " + format_value(spec.est_err) + ")";
    }
    if (!info.correlated) return std::nullopt;
    if (!(spec.use_rate_hz > 0.0)) {
        return "use_rate_hz must be > 0 (got " + format_value(spec.use_rate_hz) + ")";
    }
    if (spec.sinusoids < 4 || spec.sinusoids > 4096) {
        return "sinusoids must be in [4, 4096] (got " + std::to_string(spec.sinusoids) + ")";
    }
    const double nyquist = spec.use_rate_hz / 2.0;
    if (spec.kind == "jakes") {
        if (!(spec.doppler_hz > 0.0) || spec.doppler_hz > nyquist) {
            return "doppler_hz must be in (0, use_rate_hz/2] = (0, " + format_value(nyquist) +
                   "] (got " + format_value(spec.doppler_hz) + ")";
        }
        return std::nullopt;
    }
    // watterson
    if (spec.taps < 1 || spec.taps > 4) {
        return "taps must be in [1, 4] (got " + std::to_string(spec.taps) + ")";
    }
    if (!(spec.spread_hz > 0.0) || spec.spread_hz > nyquist) {
        return "spread_hz must be in (0, use_rate_hz/2] = (0, " + format_value(nyquist) +
               "] (got " + format_value(spec.spread_hz) + ")";
    }
    if (spec.doppler_hz < 0.0 || spec.doppler_hz > nyquist) {
        return "doppler_hz (Doppler shift) must be in [0, use_rate_hz/2] = [0, " +
               format_value(nyquist) + "] (got " + format_value(spec.doppler_hz) + ")";
    }
    return std::nullopt;
}

/// i.i.d. process: reproduces draw_channel byte-for-byte from the per-use rng.
class iid_process final : public channel_process {
public:
    iid_process(channel_model model, std::size_t num_antennas, std::size_t num_users)
        : model_(model), num_antennas_(num_antennas), num_users_(num_users) {}

    void at_into(double /*t*/, util::rng& use_rng, linalg::cmat& out) const override {
        draw_channel_into(use_rng, model_, num_antennas_, num_users_, out);
    }
    [[nodiscard]] bool correlated() const noexcept override { return false; }
    [[nodiscard]] std::size_t num_antennas() const noexcept override { return num_antennas_; }
    [[nodiscard]] std::size_t num_users() const noexcept override { return num_users_; }

private:
    channel_model model_;
    std::size_t num_antennas_;
    std::size_t num_users_;
};

/// Correlated process: one frozen fading_tap set per matrix element.  With
/// K > 1 multipath taps per element the element gain is the 1/sqrt(K)-
/// weighted sum of K independent tap processes (flat composite — the
/// narrowband view of a Watterson channel), keeping E[|h|^2] = 1.
class correlated_process final : public channel_process {
public:
    correlated_process(const channel_spec& spec, std::size_t num_antennas,
                       std::size_t num_users, const util::rng& base)
        : num_antennas_(num_antennas), num_users_(num_users) {
        const bool watterson = spec.kind == "watterson";
        const std::size_t taps_per_element = watterson ? spec.taps : 1;
        const fading_spectrum spectrum =
            watterson ? fading_spectrum::gaussian : fading_spectrum::jakes;
        const double doppler_norm = watterson ? spec.spread_norm() : spec.doppler_norm();
        const double shift_norm = watterson ? spec.doppler_norm() : 0.0;
        taps_per_element_ = taps_per_element;
        tap_amplitude_ = 1.0 / std::sqrt(static_cast<double>(taps_per_element));
        std::vector<fading_tap> taps;
        taps.reserve(num_antennas * num_users * taps_per_element);
        for (std::size_t r = 0; r < num_antennas; ++r) {
            for (std::size_t c = 0; c < num_users; ++c) {
                for (std::size_t k = 0; k < taps_per_element; ++k) {
                    // Stable per-(element, tap) stream id: independent taps
                    // whose identity does not depend on construction order.
                    util::rng tap_rng =
                        base.derive((r * num_users + c) * taps_per_element + k);
                    taps.emplace_back(tap_rng, spectrum, doppler_norm, spec.sinusoids,
                                      shift_norm);
                }
            }
        }
        // Flatten the sinusoid banks into contiguous parallel arrays so the
        // hot evaluation reads straight-line memory instead of chasing one
        // heap vector per tap.  Order is preserved exactly — (element, tap,
        // sinusoid) — so the flattened sums accumulate in the identical
        // floating-point order as fading_tap::gain.
        sinusoids_per_tap_ = spec.sinusoids;
        sinusoid_amplitude_ = taps.front().amplitude();
        const std::size_t total = taps.size() * sinusoids_per_tap_;
        omega_.reserve(total);
        phase_i_.reserve(total);
        phase_q_.reserve(total);
        for (const auto& tap : taps) {
            for (const auto& s : tap.sinusoids()) {
                omega_.push_back(s.omega);
                phase_i_.push_back(s.phase_i);
                phase_q_.push_back(s.phase_q);
            }
        }
    }

    void at_into(double t, util::rng& /*use_rng*/, linalg::cmat& h) const override {
        h.resize(num_antennas_, num_users_);
        const double* om = omega_.data();
        const double* pi = phase_i_.data();
        const double* pq = phase_q_.data();
        const std::size_t m = sinusoids_per_tap_;
        std::size_t idx = 0;
        for (std::size_t r = 0; r < num_antennas_; ++r) {
            for (std::size_t c = 0; c < num_users_; ++c) {
                linalg::cxd sum{};
                for (std::size_t k = 0; k < taps_per_element_; ++k) {
                    double gain_i = 0.0;
                    double gain_q = 0.0;
                    for (std::size_t s = 0; s < m; ++s) {
                        const double arg = om[idx + s] * t;
                        gain_i += std::cos(arg + pi[idx + s]);
                        gain_q += std::cos(arg + pq[idx + s]);
                    }
                    idx += m;
                    sum += linalg::cxd(sinusoid_amplitude_ * gain_i,
                                       sinusoid_amplitude_ * gain_q);
                }
                h(r, c) = tap_amplitude_ * sum;
            }
        }
    }

    [[nodiscard]] bool correlated() const noexcept override { return true; }
    [[nodiscard]] std::size_t num_antennas() const noexcept override { return num_antennas_; }
    [[nodiscard]] std::size_t num_users() const noexcept override { return num_users_; }

private:
    std::size_t num_antennas_;
    std::size_t num_users_;
    std::size_t taps_per_element_ = 1;
    double tap_amplitude_ = 1.0;
    // Flattened (element, tap, sinusoid)-ordered sinusoid banks.
    std::size_t sinusoids_per_tap_ = 0;
    double sinusoid_amplitude_ = 0.0;
    std::vector<double> omega_;
    std::vector<double> phase_i_;
    std::vector<double> phase_q_;
};

}  // namespace

channel_spec channel_spec::parse(const std::string& text) {
    channel_spec spec;
    const kind_info* info = nullptr;
    // The shared grammar owns the kind / key=value / duplicate checks; the
    // hooks layer the channel-specific validation in at the exact points the
    // hand-rolled loop used to: unknown kind before any argument, unknown or
    // ill-valued keys in scan order.
    (void)util::spec::parse(
        channel_grammar(), text,
        [&](const std::string& key, const std::string& value) {
            const bool accepted =
                std::any_of(info->keys.begin(), info->keys.end(),
                            [&](const char* k) { return key == k; });
            if (!accepted) {
                bad_spec(text, "channel kind '" + spec.kind + "' does not accept key '" + key +
                                   "' (accepted: " + join(info->keys) + ")");
            }
            if (key == "doppler_hz") {
                spec.doppler_hz = parse_double(text, key, value);
            } else if (key == "spread_hz") {
                spec.spread_hz = parse_double(text, key, value);
            } else if (key == "taps") {
                spec.taps = parse_size(text, key, value);
            } else if (key == "use_rate_hz") {
                spec.use_rate_hz = parse_double(text, key, value);
            } else if (key == "sinusoids") {
                spec.sinusoids = parse_size(text, key, value);
            } else if (key == "est_err") {
                spec.est_err = parse_double(text, key, value);
            } else if (key == "snr_db") {
                spec.snr_db = parse_double(text, key, value);
            }
        },
        [&](const std::string& kind) {
            spec.kind = kind;
            info = &info_for(kind, text);
            if (kind == "watterson") spec.doppler_hz = 0.0;  // Doppler SHIFT default
        });

    if (const auto why = range_error(spec, *info)) bad_spec(text, *why);
    return spec;
}

std::string channel_spec::to_string() const {
    const kind_info& info = info_for(kind, kind);
    std::string out = kind;
    char sep = ':';
    for (const char* key_cstr : info.keys) {
        const std::string key = key_cstr;
        std::string value;
        if (key == "doppler_hz") {
            value = format_value(doppler_hz);
        } else if (key == "spread_hz") {
            value = format_value(spread_hz);
        } else if (key == "taps") {
            value = std::to_string(taps);
        } else if (key == "use_rate_hz") {
            value = format_value(use_rate_hz);
        } else if (key == "sinusoids") {
            value = std::to_string(sinusoids);
        } else if (key == "est_err") {
            value = format_value(est_err);
        } else if (key == "snr_db") {
            if (!snr_db.has_value()) continue;  // only when set
            value = format_value(*snr_db);
        }
        out += sep;
        sep = ',';
        out += key;
        out += '=';
        out += value;
    }
    return out;
}

bool channel_spec::correlated() const noexcept {
    for (const auto& info : kind_table()) {
        if (kind == info.name) return info.correlated;
    }
    return false;
}

std::vector<std::string> channel_spec::kinds() {
    std::vector<std::string> names;
    names.reserve(kind_table().size());
    for (const auto& info : kind_table()) names.emplace_back(info.name);
    return names;
}

std::string channel_spec::help() {
    std::ostringstream os;
    os << "channel kinds (spec grammar: kind or kind:key=value,...):\n";
    os << "  random-phase   i.i.d. unit-gain random phase per use (paper 4.2)\n";
    os << "  rayleigh       i.i.d. CN(0,1) per use (the default)\n";
    os << "  jakes          time-correlated Clarke/Jakes flat fading\n";
    os << "  watterson      multipath composite of Gaussian-spread fading taps\n";
    os << "keys:\n";
    os << "  doppler_hz     jakes: max Doppler in (0, use_rate_hz/2] (default 50);\n";
    os << "                 watterson: Doppler shift in [0, use_rate_hz/2] (default 0)\n";
    os << "  spread_hz      watterson: Gaussian Doppler spread in (0, use_rate_hz/2]\n";
    os << "                 (default 1)\n";
    os << "  taps           watterson: multipath tap count in [1, 4] (default 2)\n";
    os << "  use_rate_hz    channel uses per second, maps Hz to per-use rates\n";
    os << "                 (default 1000)\n";
    os << "  sinusoids      sum-of-sinusoids order per tap, [4, 4096] (default 16)\n";
    os << "  est_err        CSI estimation-error variance >= 0: detectors see\n";
    os << "                 H_est = H_true + CN(0, est_err) (default 0 = perfect CSI)\n";
    os << "  snr_db         per-spec SNR override of the link-level --snr\n";
    return os.str();
}

std::unique_ptr<const channel_process> make_channel_process(const channel_spec& spec,
                                                            std::size_t num_antennas,
                                                            std::size_t num_users,
                                                            const util::rng& base) {
    if (num_antennas == 0 || num_users == 0) {
        throw std::invalid_argument("make_channel_process: empty dimensions");
    }
    // Hand-built specs get the same checks as parsed ones; the spec text is
    // only formatted for the error message.
    if (const auto why = range_error(spec, info_for(spec.kind, spec.kind))) {
        bad_spec(spec.to_string(), *why);
    }
    if (spec.kind == "rayleigh") {
        return std::make_unique<iid_process>(channel_model::rayleigh, num_antennas, num_users);
    }
    if (spec.kind == "random-phase") {
        return std::make_unique<iid_process>(channel_model::unit_gain_random_phase,
                                             num_antennas, num_users);
    }
    return std::make_unique<correlated_process>(spec, num_antennas, num_users, base);
}

}  // namespace hcq::wireless
