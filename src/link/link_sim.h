// End-to-end streaming link simulator (hcq::link) — the full
// channel-use -> QUBO -> solve -> BER path of the paper, run as ONE system.
//
// Where the figure benches study solvers on frozen corpora and
// pipeline/pipeline.h studies queueing on synthetic service models, this
// layer closes the loop: it generates successive wireless channel uses
// (wireless/channel.h + wireless/mimo.h + modulation), reduces each to QUBO
// form through the QuAMax transform (detect/transform.h) when any path needs
// it, and dispatches the solves across util::thread_pool side by side.
//
// Detection paths are *not* hard-coded: each entry of link_config::paths is
// a paths::path_spec ("zf", "kbest:width=16", "gsra:reads=80,sp=0.29",
// "kxra:k=4", ...) resolved through paths::registry, so any registered path
// — conventional detector, classical QUBO heuristic, or hybrid
// classical-quantum structure — can ride the stream without touching this
// layer.  Measured per-stage wall times feed pipeline::simulate via
// stage::from_trace, so Figure-2 throughput/latency numbers come from the
// actual code paths instead of lognormal stand-ins; the replay runs with the
// configured bounded stage buffers and backpressure policy, reporting drop
// rates and queue occupancy.
//
// Scaling: the stream is processed in fixed-size windows of
// link_config::stream_block uses — the workers fill one window in parallel,
// then the statistics are folded serially in use order into constant-size
// aggregates (exact BER / ML-cost / exact-frame counters plus
// metrics::latency_digest summaries and a bounded replay sample per stage).
// Memory is therefore O(stream_block x paths), independent of num_uses —
// million-use runs are first-class.
//
// Determinism: every channel use draws from an RNG stream derived from
// (seed, domain, use index) and every (use, path) solve from
// (seed, domain, use * num_paths + path) — the thread pool decides only
// *when* a cell runs, never *what* it computes, and aggregation is serial in
// use order.  All link-layer
// statistics (BER, ML costs, exact-frame counts) are therefore bit-identical
// at any thread count AND any stream_block size; only the measured wall
// times vary run to run.  The golden-value tests in tests/link_test.cpp pin
// these statistics to the values the pre-registry (enum-dispatch, per-cell
// storage) implementation produced; tests/workspace_test.cpp pins the
// coded, burst, and ARQ statistics as well.
//
// Concurrency contract: lock-free steady state by design.  Workers fill
// disjoint, preallocated per-use and per-frame slots of the current window
// and the fold is serial.  Each worker's scratch — its workspace
// (paths/workspace.h), FEC codec, frame buffers, and retransmission memo —
// is one plain struct per pool slot, and util::thread_pool::for_each_slot
// hands a slot to one thread at a time, so the only annotated locking on
// the path is inside util::thread_pool.  TSan (verify.sh --tsan) and the
// thread-count-invariance tests enforce the contract; see
// docs/ARCHITECTURE.md, "The determinism contract as enforceable rules".
#ifndef HCQ_LINK_LINK_SIM_H
#define HCQ_LINK_LINK_SIM_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arq/arq.h"
#include "fec/code_spec.h"
#include "metrics/ber.h"
#include "metrics/digest.h"
#include "paths/detection_path.h"
#include "pipeline/pipeline.h"
#include "util/table.h"
#include "wireless/channel.h"
#include "wireless/channel_spec.h"
#include "wireless/modulation.h"

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

/// Link-simulation knobs.  Defaults exercise the acceptance scenario: >= 100
/// channel uses through wireless -> QUBO -> {linear, tree search, exact
/// sphere, SA, hybrid}.  Per-path knobs (K-best width, SA budget, hybrid
/// reads/schedule, ...) live inside the specs, not here.
struct link_config {
    std::size_t num_uses = 120;   ///< channel uses in the stream
    std::size_t num_users = 4;    ///< transmit streams, N_r = N_t
    wireless::modulation mod = wireless::modulation::qam16;
    wireless::channel_model channel = wireless::channel_model::rayleigh;
    bool noiseless = false;       ///< paper Section-4.2 corpus setting (no AWGN)
    double snr_db = 16.0;         ///< per-antenna SNR when AWGN is enabled

    /// Realistic-channel spec (wireless/channel_spec.h) overriding `channel`
    /// when set: time-correlated fading ("jakes:doppler_hz=5",
    /// "watterson:taps=2,spread_hz=1"), imperfect CSI (est_err=...), and an
    /// optional per-spec snr_db override of `snr_db`.  nullopt keeps the
    /// legacy i.i.d. `channel` draw byte-for-byte — and so does an explicit
    /// "rayleigh" spec with est_err unset (pinned by the golden tests).
    /// Correlated fading draws its frozen tap parameters from a dedicated
    /// derived stream, one realisation per run; an ARQ retransmission
    /// attempt r of frame u sees the process at t = u + r (one use later),
    /// so low-Doppler retries land inside the fade that failed them.
    std::optional<wireless::channel_spec> channel_spec;

    /// Paths every use is detected by, in report order; resolved through
    /// paths::registry.  Two specs may share a kind (e.g. two K-best widths
    /// side by side) but exact duplicates — same canonical spec — throw.
    std::vector<paths::path_spec> paths =
        paths::parse_spec_list("zf,kbest,sphere,sa,gsra");

    std::size_t num_threads = 0;   ///< worker threads (0 = hardware concurrency)
    std::uint64_t seed = 1;        ///< master seed for all derived streams
    double offered_load = 0.9;     ///< arrival rate / bottleneck rate in the replay

    /// Tandem-queue replay buffering: waiting slots in front of every
    /// replayed stage, and what happens when one fills.
    /// pipeline::unbounded_capacity gives buffers that never fill;
    /// 0 throws (see pipeline::simulate).
    std::size_t buffer_capacity = 256;
    pipeline::backpressure policy = pipeline::backpressure::block;

    /// Channel uses processed per aggregation window; bounds peak memory at
    /// O(stream_block x paths) without affecting any statistic.  0 throws.
    std::size_t stream_block = 1024;

    /// Forward error correction (fec/code_spec.h): when set, the stream
    /// carries CODED frames — each frame's information bits (drawn from the
    /// dedicated fec stream domain) are convolutionally encoded and
    /// interleaved into rows x cols coded bits spanning ceil(coded_bits /
    /// bits_per_use) consecutive channel uses (the last use zero-padded),
    /// every path's per-use soft output (detection_path::soft_output) is
    /// decoded per frame by a soft-decision Viterbi decoder, and the report
    /// gains coded FER / coded BER beside the raw per-use statistics.
    /// num_uses must be a whole number of frames.  With `arq` also set the
    /// ARQ unit becomes the coded frame (hybrid ARQ): a frame whose decode
    /// fails is retransmitted — same coded bits, fresh channel/noise from
    /// the (use, attempt) derived streams — and decoded against chase-
    /// combined (or per-attempt, combining=plain) LLRs.  unset = uncoded,
    /// bit-identical to the pre-FEC link (golden-pinned).
    std::optional<fec::code_spec> fec;

    /// ARQ / retransmission loop (arq/arq.h): when set, every frame whose
    /// detected bits are wrong (or every frame, when deadline_us == 0) is
    /// re-solved on fresh derived-RNG channel uses up to max_retx times in
    /// the streaming loop — the detection-domain counters stay bit-identical
    /// at any thread count and stream_block size — and the measured traces
    /// are additionally replayed CLOSED loop (failures re-enter the chain as
    /// retransmission load, deadline judged on replayed latency).  nullopt
    /// keeps the simulator open loop, byte-for-byte as before.
    std::optional<arq::arq_config> arq;
};

/// Streaming summary of one named processing stage across the stream: exact
/// count/mean/max, digest-backed p50/p99, and a bounded head sample used to
/// replay the stage through the Figure-2 tandem queue.  Memory is fixed
/// regardless of stream length.
///
/// Percentile semantics: an empty trace has mean_us() == p50_us() ==
/// p99_us() == 0.0 (there is nothing to summarise, and 0 keeps replay
/// arithmetic finite); a single-entry trace returns that entry for every
/// percentile (the digest clamps into [min, max]).  With two or more entries
/// the percentiles come from metrics::latency_digest — log-binned, ~0.4%
/// relative error.
class stage_trace {
public:
    /// Service times kept verbatim for the tandem-queue replay: up to this
    /// many entries, strided uniformly across the stream (see below).
    /// pipeline::stage::from_trace cycles the sample over longer replays.
    static constexpr std::size_t replay_sample_capacity = 512;

    stage_trace() = default;
    /// `sample_stride` spaces the replay sample across the stream: every
    /// stride-th added entry is kept (first entry always).  Callers that
    /// know the stream length use ceil(length / replay_sample_capacity) so
    /// the sample covers the WHOLE stream uniformly instead of just the
    /// warm-up head — warm-up service times run slower than steady state
    /// and would otherwise bias long replays.  0 or 1 keeps every entry
    /// until the capacity is reached.
    explicit stage_trace(std::string name, std::size_t sample_stride = 1);
    /// Pre-filled trace (adds every entry, stride 1); convenience for tests.
    stage_trace(std::string name, const std::vector<double>& service_us);

    /// Folds one per-use service time into the summary.
    void add(double service_us);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::uint64_t count() const noexcept { return digest_.count(); }
    [[nodiscard]] double mean_us() const { return digest_.mean(); }
    [[nodiscard]] double p50_us() const { return digest_.p50(); }
    [[nodiscard]] double p99_us() const { return digest_.p99(); }
    [[nodiscard]] double max_us() const { return digest_.max(); }
    [[nodiscard]] const std::vector<double>& replay_sample() const noexcept { return sample_; }

private:
    std::string name_;
    std::size_t sample_stride_ = 1;
    metrics::latency_digest digest_;
    std::vector<double> sample_;
};

/// Deterministic frame-error burst statistics, folded serially in use order
/// — bit-identical at any thread count and stream_block size, like BER.  A
/// burst is a maximal run of consecutive channel uses whose detected bits
/// were wrong.  On an i.i.d. channel bursts stay near geometric (mean
/// ~1/(1-FER)); under low-Doppler correlated fading errors concentrate into
/// long runs — the regime split tests/channel_stats_test.cpp pins.
struct burst_stats {
    std::uint64_t error_frames = 0;   ///< uses whose detected bits were wrong
    std::uint64_t bursts = 0;         ///< maximal error runs
    std::uint64_t longest_burst = 0;  ///< length of the longest error run

    /// Mean error-run length (0 when the stream had no errors).
    [[nodiscard]] double mean_burst_length() const noexcept;
};

/// Per-path ARQ outcome (present on path_report when link_config::arq is
/// set).  `counters` and `retx_service`'s count are detection-domain
/// (bit-identical at any thread count / stream block); `replay_stats` and
/// `closed_replay` are timing-domain (measured traces, vary run to run).
struct arq_path_report {
    arq::counters counters;        ///< residual FER / retx rate / attempts, exact
    stage_trace retx_service;      ///< measured per-retransmission service (qubo + solve)
    /// Deadline misses, delivered frames, goodput — and the deadline the
    /// replay actually ran against (after `auto` resolution to the
    /// open-loop replay's p99): replay_stats.resolved_deadline_us.  The
    /// configuration itself lives in link_report::config.arq.
    arq::replay_stats replay_stats;
    pipeline::simulation_result closed_replay;  ///< the feedback tandem-queue replay
};

/// Per-path coded-link outcome (present on path_report when
/// link_config::fec is set).  Everything here is detection-domain:
/// bit-identical at any thread count and stream_block size, like BER.
/// The attempt-0 statistics are ARQ-independent — they describe the first
/// decode of every frame even when hybrid ARQ then retransmits it (the ARQ
/// outcome lives in arq_path_report, whose frame unit becomes the coded
/// frame when FEC is on).
struct fec_path_report {
    std::uint64_t frames = 0;        ///< coded frames offered
    std::uint64_t frame_errors = 0;  ///< frames whose attempt-0 decode was wrong
    metrics::ber_counter info_ber;   ///< attempt-0 decoded info bits vs true info bits

    /// Coded frame-error rate (attempt 0): decode failures / frames.
    [[nodiscard]] double coded_fer() const noexcept;
};

/// Everything one detection path accumulated over the stream.
struct path_report {
    std::string kind;  ///< registry kind, e.g. "kbest"
    std::string name;  ///< display name, e.g. "K-best"
    std::string spec;  ///< canonical spec, e.g. "kbest:width=8"
    metrics::ber_counter ber;        ///< detected bits vs transmitted bits
    std::size_t exact_frames = 0;    ///< uses whose detected bits match tx exactly
    double sum_ml_cost = 0.0;        ///< sum of ||y - H x_hat||^2 (deterministic)
    burst_stats bursts;              ///< frame-error run structure (deterministic)

    /// Per-stage streaming service summaries, front-end first (synthesis and
    /// QUBO reduction are shared across paths; solve stages are per path —
    /// e.g. the hybrid splits into its classical and quantum halves).
    std::vector<stage_trace> stages;

    /// Parallel-device count per entry of `stages` (1 except for stages a
    /// path declares multi-device, e.g. the kxra quantum stage).
    std::vector<std::size_t> stage_servers;

    /// Total per-use service downstream of the shared synthesis stage (for
    /// the hybrid that is qubo + classical + quantum).
    stage_trace service;

    /// Tandem-queue replay of the measured traces at the configured offered
    /// load and buffering (pipeline::simulate over stage::from_trace with
    /// the link_config's buffer capacity / backpressure policy).
    pipeline::simulation_result replay;

    /// Coded-link outcome; engaged iff link_config::fec was set.
    std::optional<fec_path_report> fec;

    /// ARQ loop outcome; engaged iff link_config::arq was set.  When
    /// link_config::fec is also set the counters count coded FRAMES (hybrid
    /// ARQ at frame granularity), not channel uses.
    std::optional<arq_path_report> arq;

    [[nodiscard]] std::vector<std::string> stage_names() const;
};

/// Full link-simulation outcome.
struct link_report {
    link_config config;
    stage_trace synthesis;  ///< channel + modulation synthesis, shared front-end
    stage_trace reduction;  ///< ML -> QUBO transform, shared by the QUBO-based
                            ///< paths (all-zero when none is configured)
    std::vector<path_report> paths;

    /// First path whose registry kind, display name, or canonical spec
    /// equals `query` (e.g. "sphere", "SD", or "kbest:width=16"); throws
    /// std::out_of_range when absent.
    [[nodiscard]] const path_report& path(std::string_view query) const;
};

/// Runs the stream end to end.  Throws std::invalid_argument on zero uses,
/// users, or stream block, an empty path list, an unknown/malformed path
/// spec, a duplicated canonical spec, a non-positive offered load, or a zero
/// buffer capacity.
[[nodiscard]] link_report run_link_simulation(const link_config& config);

/// One row per path: BER, error-burst length, measured mean/p50/p99 solve
/// service, the replay's
/// sustained throughput and p50/p99 latency (the ARQ budget view), and the
/// replay's drop rate and peak queue occupancy under the configured
/// backpressure policy.  When the link runs coded (link_config::fec), two
/// more columns: coded FER and coded BER (attempt-0 decode, detection
/// domain).  When the ARQ loop is engaged, four more columns: residual FER
/// and retransmission rate (detection domain, bit-identical), deadline-miss
/// rate and goodput (timing domain, from the closed-loop replay).
[[nodiscard]] util::table summary_table(const link_report& report);

}  // namespace hcq::link

#endif  // HCQ_LINK_LINK_SIM_H
