#include "wireless/channel_spec.h"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/spec.h"
#include "wireless/fading.h"

namespace hcq::wireless {
namespace {

constexpr util::spec::key_row use_rate_key{
    "use_rate_hz", "uses per second, mapping Hz rates to per use (default 1000)"};
constexpr util::spec::key_row sinusoids_key{
    "sinusoids", "sum-of-sinusoids order per tap in [4, 4096] (default 16)"};
constexpr util::spec::key_row est_err_key{
    "est_err", "CSI estimation-error variance >= 0 (default 0 = perfect CSI)"};
constexpr util::spec::key_row snr_key{"snr_db", "per-spec SNR override of the link-level --snr"};

constexpr util::spec::key_row iid_keys[] = {est_err_key, snr_key};
constexpr util::spec::key_row jakes_keys[] = {
    {"doppler_hz", "max Doppler in (0, use_rate_hz/2] (default 50)"},
    use_rate_key, sinusoids_key, est_err_key, snr_key};
constexpr util::spec::key_row watterson_keys[] = {
    {"taps", "multipath tap count in [1, 4] (default 2)"},
    {"spread_hz", "Gaussian Doppler spread in (0, use_rate_hz/2] (default 1)"},
    {"doppler_hz", "Doppler shift in [0, use_rate_hz/2] (default 0)"},
    use_rate_key, sinusoids_key, est_err_key, snr_key};

/// Every channel kind, sorted; the canonical key order is each kind's
/// table order.
constexpr util::spec::kind_row kinds[] = {
    {"jakes", "time-correlated Clarke/Jakes flat fading", jakes_keys},
    {"random-phase", "i.i.d. unit-gain random phase per use (paper 4.2)", iid_keys},
    {"rayleigh", "i.i.d. CN(0,1) per use (the default)", iid_keys},
    {"watterson", "multipath composite of Gaussian-spread fading taps", watterson_keys},
};
constexpr util::spec::family family{"channels", "channel kind", "channel kind", kinds};

/// The checks every spec passes before a process is built, parsed or hand-
/// built: why the first failing one fails, or nullopt.  A parsed value is
/// finite already; a hand-built one is checked here.
std::optional<std::string> range_error(const channel_spec& spec) {
    (void)util::spec::find_kind(family, spec.kind);
    using util::spec::format_value;
    for (const auto& [key, value] :
         {std::pair{"doppler_hz", spec.doppler_hz}, std::pair{"spread_hz", spec.spread_hz},
          std::pair{"use_rate_hz", spec.use_rate_hz}, std::pair{"est_err", spec.est_err},
          std::pair{"snr_db", spec.snr_db.value_or(0.0)}}) {
        if (!std::isfinite(value)) {
            return "bad value '" + format_value(value) + "' for key '" + key +
                   "' (expected a finite number)";
        }
    }
    if (spec.est_err < 0.0) {
        return "est_err must be >= 0 (got " + format_value(spec.est_err) + ")";
    }
    if (!spec.correlated()) return std::nullopt;
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
    using util::spec::finite;
    using util::spec::non_negative;
    const util::spec::parsed p = util::spec::parse(family, text);
    channel_spec spec;
    spec.kind = p.kind;
    if (spec.kind == "watterson") spec.doppler_hz = 0.0;  // Doppler SHIFT default
    spec.doppler_hz = finite(family, p, "doppler_hz", spec.doppler_hz);
    spec.spread_hz = finite(family, p, "spread_hz", spec.spread_hz);
    spec.taps = non_negative(family, p, "taps", spec.taps);
    spec.use_rate_hz = finite(family, p, "use_rate_hz", spec.use_rate_hz);
    spec.sinusoids = non_negative(family, p, "sinusoids", spec.sinusoids);
    spec.est_err = finite(family, p, "est_err", spec.est_err);
    if (p.find("snr_db") != nullptr) spec.snr_db = finite(family, p, "snr_db", 0.0);
    if (const auto why = range_error(spec)) util::spec::fail(family, text, *why);
    return spec;
}

std::string channel_spec::to_string() const {
    using util::spec::format_value;
    util::spec::parsed out{kind, {}};
    if (kind == "watterson") {
        out.args.emplace_back("taps", std::to_string(taps));
        out.args.emplace_back("spread_hz", format_value(spread_hz));
    }
    if (correlated()) {
        out.args.emplace_back("doppler_hz", format_value(doppler_hz));
        out.args.emplace_back("use_rate_hz", format_value(use_rate_hz));
        out.args.emplace_back("sinusoids", std::to_string(sinusoids));
    }
    out.args.emplace_back("est_err", format_value(est_err));
    if (snr_db.has_value()) out.args.emplace_back("snr_db", format_value(*snr_db));
    return out.to_string();
}

bool channel_spec::correlated() const noexcept { return kind == "jakes" || kind == "watterson"; }

std::vector<std::string> channel_spec::kinds() { return util::spec::names(family); }

std::string channel_spec::help() {
    return util::spec::help(family, "channel kinds (--channel kind or kind:key=value,...)");
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
    if (const auto why = range_error(spec)) util::spec::fail(family, spec.to_string(), *why);
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
