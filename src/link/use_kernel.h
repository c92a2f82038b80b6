// One channel use of the paper's hybrid structure (Kim, Venturelli &
// Jamieson, HotNets'20, Figs. 1-2): synthesis, the QuAMax reduction, then a
// detection path's solve with optional soft output.  The link simulator
// (link/link_sim.h) and the serving front end (serve/service.h) run every
// use through this kernel, which is why a served batch reproduces the link
// bit-for-bit.
//
// A use_kernel holds one stream's resolved channel: the frozen process of its
// channel spec, the spec's SNR override, the CSI error and the noise
// variance.  It draws no randomness of its own — every step takes the
// caller's derived stream — so which thread runs a use never changes what it
// computes.  All three steps run in caller-owned buffers and are
// allocation-free once those are warm.
#ifndef HCQ_LINK_USE_KERNEL_H
#define HCQ_LINK_USE_KERNEL_H

#include <cstdint>
#include <memory>
#include <span>

#include "detect/transform.h"
#include "paths/detection_path.h"
#include "util/rng.h"
#include "wireless/channel_spec.h"
#include "wireless/mimo.h"

namespace hcq::link {

/// Derived-RNG stream-domain tags of the link layer.  Channel-use synthesis
/// draws come from rng(seed).derive(synthesis).derive(u) and the (use, path)
/// solve draws from rng(seed).derive(solve).derive(u * num_paths + p); the
/// ARQ and fading domains keep retransmission and frozen-tap draws disjoint.
/// These values predate the registry redesign and must never change: the
/// golden-value tests pin link statistics to the enum-dispatch implementation
/// that used them, and the serving front end (serve/service.h) reproduces a
/// served batch bit-for-bit by deriving from the SAME domains.
namespace stream_domains {
inline constexpr std::uint64_t synthesis = 0x6c696e6b5f434855ULL;       // "link_CHU"
inline constexpr std::uint64_t solve = 0x6c696e6b5f534c56ULL;           // "link_SLV"
inline constexpr std::uint64_t arq_synthesis = 0x6172715f5f434855ULL;   // "arq__CHU"
inline constexpr std::uint64_t arq_solve = 0x6172715f5f534c56ULL;       // "arq__SLV"
inline constexpr std::uint64_t fading = 0x6c696e6b5f464144ULL;          // "link_FAD"
/// Per-frame information-bit draws of the coded link (link_config::fec):
/// frame f's info bits come from rng(seed).derive(fec).derive(f) — disjoint
/// from every domain above, so enabling FEC never perturbs the channel or
/// noise draws (the coded use overrides the tx bits but still consumes the
/// synthesis stream identically; see wireless::synthesize_coded_into).
inline constexpr std::uint64_t fec = 0x6c696e6b5f464543ULL;             // "link_FEC"
}  // namespace stream_domains

/// The three steps of one channel use over one stream's resolved channel.
/// Immutable after construction; every member is const-thread-safe.
class use_kernel {
public:
    /// Resolves `channel` for a num_users x num_users link under `mod`.  The
    /// spec's snr_db overrides `snr_db`; `noiseless` disables AWGN.
    /// Correlated fading freezes its taps from
    /// rng(seed).derive(stream_domains::fading), one realisation per stream.
    /// Throws std::invalid_argument on zero users or an invalid spec.
    use_kernel(const wireless::channel_spec& channel, wireless::modulation mod,
               std::size_t num_users, bool noiseless, double snr_db, std::uint64_t seed);

    /// Synthesises the use at process time `t` into `out` from `rng`.
    /// Non-empty `tx_bits` go on the air in place of the uniform bit draw,
    /// which is still consumed.  Returns the measured wall time in µs.
    double synthesize(util::rng& rng, double t, std::span<const std::uint8_t> tx_bits,
                      wireless::mimo_instance& out) const;

    /// synthesize through a true channel the caller already holds
    /// (wireless::synthesize_given_coded_into).  When correlated(), the
    /// true channel of a use synthesised at `t` gives synthesize(rng, t,
    /// ...)'s instance bit for bit, without evaluating H(t) again.
    double synthesize_given(util::rng& rng, const linalg::cmat& h_true,
                            std::span<const std::uint8_t> tx_bits,
                            wireless::mimo_instance& out) const;

    /// wireless::channel_process::correlated of the stream's channel.
    [[nodiscard]] bool correlated() const noexcept { return process_->correlated(); }

    /// QuAMax reduction of `instance` into `out`, in `ws`'s scratch.
    /// Returns the measured wall time in µs.
    static double reduce(const wireless::mimo_instance& instance, paths::workspace& ws,
                         detect::ml_qubo& out);

    /// Runs `path` on `instance` into `out`, drawing only from `rng`, the
    /// use's per-path stream.  `reduced` is the use's reduction when the
    /// path needs it, null otherwise.  With `soft`, also fills out.llrs.
    static void detect(const paths::detection_path& path, const wireless::mimo_instance& instance,
                       const detect::ml_qubo* reduced, util::rng& rng, paths::workspace& ws,
                       bool soft, paths::path_result& out);

    /// Coded bits one use carries: users x bits per symbol.
    [[nodiscard]] std::size_t bits_per_use() const noexcept;

private:
    wireless::mimo_config mimo_;
    double est_err_ = 0.0;
    std::unique_ptr<const wireless::channel_process> process_;
};

}  // namespace hcq::link

#endif  // HCQ_LINK_USE_KERNEL_H
