// Composable channel selection by spec string — the channel-side twin of the
// detection-path registry (paths/registry.h).
//
// A channel_spec names a channel kind plus its knobs, in the detection-path
// grammar `kind` or `kind:key=value,key=value`, read through the same
// front end (util/spec.h):
//
//     "rayleigh"                          i.i.d. CN(0,1) per use (the default)
//     "random-phase"                      i.i.d. unit-gain random phase (paper 4.2)
//     "jakes:doppler_hz=50"               time-correlated flat Clarke/Jakes fading
//     "watterson:taps=2,spread_hz=1"      multipath composite of Gaussian-spread taps
//     "jakes:doppler_hz=5,est_err=0.05"   ... with pilot-estimated (imperfect) CSI
//
// Every kind accepts the `est_err` modifier (pilot-based channel-estimation
// error variance: detectors see H_est = H_true + E, E_ij ~ CN(0, est_err),
// while the channel applies H_true) and an optional `snr_db` override of the
// link-level SNR.  The correlated kinds express their rates in Hz against a
// `use_rate_hz` channel-use rate (default 1000 uses/s), so
// `jakes:doppler_hz=5` is a normalised Doppler of 0.005 per use — a
// coherence time of ~85 uses, the burst-error regime — while doppler_hz near
// use_rate_hz/2 approaches independent draws.
//
// Errors are util::spec's: an unknown kind lists the valid kinds, an
// unknown key lists the kind's accepted keys, a value that does not read
// names the key and the expected form, and an out-of-range value names the
// key, the offending value, and the accepted range.
//
// Determinism contract (mirrors link/link_sim.h): a correlated
// channel_process freezes ALL its randomness at construction from the
// caller-provided derived rng — per-(antenna, user, tap) sum-of-sinusoids
// parameters — after which `at(t)` is a pure function of t, bit-identical
// at any thread count and stream order.  The i.i.d. kinds draw from the
// per-use rng handed to `at`, as the FIRST consumer, reproducing
// draw_channel byte-for-byte — so `--channel rayleigh` (and est_err=0)
// equals the legacy enum path bit-for-bit.
#ifndef HCQ_WIRELESS_CHANNEL_SPEC_H
#define HCQ_WIRELESS_CHANNEL_SPEC_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"
#include "wireless/channel.h"

namespace hcq::wireless {

/// A parsed channel specification.  Field defaults are the `jakes` defaults;
/// `parse` applies per-kind defaults (watterson's doppler_hz — its Doppler
/// SHIFT — defaults to 0) before applying the user's keys.
struct channel_spec {
    std::string kind = "rayleigh";  ///< rayleigh | random-phase | jakes | watterson

    double doppler_hz = 50.0;    ///< jakes: max Doppler; watterson: Doppler shift (default 0)
    double spread_hz = 1.0;      ///< watterson: per-tap Gaussian Doppler spread
    std::size_t taps = 2;        ///< watterson: multipath tap count (1..4)
    double use_rate_hz = 1000.0; ///< channel uses per second (Hz -> per-use mapping)
    std::size_t sinusoids = 16;  ///< sum-of-sinusoids order per tap (4..4096)
    double est_err = 0.0;        ///< CSI estimation-error variance (any kind)
    std::optional<double> snr_db;  ///< per-spec SNR override of link_config::snr_db

    /// Parses `kind` or `kind:key=value,...`.  Throws std::invalid_argument
    /// with a self-documenting message on an unknown kind (listing kinds()),
    /// an unknown or duplicate key (listing the kind's accepted keys), a
    /// malformed value, or an out-of-range value (Doppler/spread beyond
    /// use_rate_hz/2, taps outside 1..4, ...).
    [[nodiscard]] static channel_spec parse(const std::string& text);

    /// Canonical text form: every accepted key explicit (like path specs, so
    /// "jakes" and "jakes:doppler_hz=50" canonicalise identically); snr_db
    /// appears only when set.
    [[nodiscard]] std::string to_string() const;

    /// True for the time-correlated kinds (jakes, watterson).
    [[nodiscard]] bool correlated() const noexcept;

    /// Doppler / spread normalised per channel use.
    [[nodiscard]] double doppler_norm() const noexcept { return doppler_hz / use_rate_hz; }
    [[nodiscard]] double spread_norm() const noexcept { return spread_hz / use_rate_hz; }

    /// All channel kinds, sorted — the error-message and help listing.
    [[nodiscard]] static std::vector<std::string> kinds();

    /// Multi-line human-readable listing of kinds and keys (CLI --help body).
    [[nodiscard]] static std::string help();
};

/// One frozen channel realisation across a stream.  Instances are immutable
/// after construction; `at_into` is const-thread-safe.
class channel_process {
public:
    virtual ~channel_process() = default;

    /// The TRUE channel at time `t` (channel uses), into a reused matrix so
    /// warmed-up evaluation is allocation-free.  Correlated kinds evaluate
    /// their frozen tap processes closed-form (out of flattened contiguous
    /// sinusoid banks) and leave `use_rng` untouched; i.i.d. kinds ignore
    /// `t` and draw from `use_rng` exactly like draw_channel (same draw
    /// order — the first consumer of the per-use stream).
    virtual void at_into(double t, util::rng& use_rng, linalg::cmat& out) const = 0;

    /// Allocating form of at_into.
    [[nodiscard]] linalg::cmat at(double t, util::rng& use_rng) const {
        linalg::cmat h;
        at_into(t, use_rng, h);
        return h;
    }

    /// True when consecutive uses are correlated (jakes/watterson).  Then
    /// at_into's H is a pure function of `t`, bit for bit, and `use_rng` is
    /// left untouched; the link relies on this to put a retransmission on
    /// the air through an H(t) its frame already holds.  False for the
    /// i.i.d. kinds, which draw H from `use_rng`.
    [[nodiscard]] virtual bool correlated() const noexcept = 0;

    [[nodiscard]] virtual std::size_t num_antennas() const noexcept = 0;
    [[nodiscard]] virtual std::size_t num_users() const noexcept = 0;
};

/// Builds the frozen realisation of `spec` for an antennas x users channel.
/// Correlated kinds consume `base` (copied) to freeze their per-(antenna,
/// user, tap) sum-of-sinusoids parameters; i.i.d. kinds ignore it.  Throws
/// std::invalid_argument on empty dimensions or an invalid spec.
[[nodiscard]] std::unique_ptr<const channel_process> make_channel_process(
    const channel_spec& spec, std::size_t num_antennas, std::size_t num_users,
    const util::rng& base);

}  // namespace hcq::wireless

#endif  // HCQ_WIRELESS_CHANNEL_SPEC_H
