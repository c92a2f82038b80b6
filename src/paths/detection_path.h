// The unified detection-path API — the paper's core argument made literal.
//
// Kim & Venturelli's point (HotNets 2020, Figure 1) is that classical
// detectors, quantum annealing, and hybrid classical-quantum structures are
// interchangeable *modules* of one detection pipeline.  This layer is the
// single polymorphic interface behind which all of them live: a
// `detection_path` consumes one channel-use context (the MIMO instance, the
// shared QUBO reduction when it needs one, and a derived RNG stream) and
// returns the detected bits, the ML cost, and per-stage timings, named by
// the path's stage_names().
//
// Paths are constructed from *spec strings* through `paths::registry`
// (registry.h): `"zf"`, `"kbest:width=16"`, `"gsra:reads=80,sp=0.29"` — so
// adding a new scenario (a new tree search, a QAOA-style solver, a
// multi-annealer stage) means implementing its class and adding one entry
// to the registry's kind table, not editing an enum, a parser, a switch,
// and a config struct.
//
// Determinism contract: a path must draw randomness only from `ctx.rng`.
// Callers (link::run_link_simulation, the serving front end) hand every
// (use, path) cell its own derived stream, which is what keeps BER/ML-cost
// statistics bit-identical at any thread count.  Only the timings in
// `path_result::stages` are measured wall time (or programmed device
// occupancy) and vary run to run.
#ifndef HCQ_PATHS_DETECTION_PATH_H
#define HCQ_PATHS_DETECTION_PATH_H

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "detect/transform.h"
#include "util/rng.h"
#include "util/spec.h"
#include "wireless/mimo.h"

namespace hcq::paths {

struct workspace;  // per-worker reusable state (paths/workspace.h)

/// A parsed path specification: a registry kind plus ordered key=value
/// arguments (util/spec.h's parsed, with its find and canonical to_string).
/// Text form: `kind` or `kind:key=value,key=value` — e.g.
/// `"kbest:width=16"`, `"gsra:reads=80,sp=0.29,pause_us=1"`.
struct path_spec : util::spec::parsed {
    /// Parses one spec string; throws std::invalid_argument (with the
    /// malformed fragment named) on an empty kind, a missing '=', an empty
    /// key or value, or a repeated key.  Does NOT check the kind or keys
    /// against the registry — registry::make does, for hand-built specs
    /// too, where the error can list what exists.
    [[nodiscard]] static path_spec parse(const std::string& text);
};

/// Splits a comma-separated CLI list into specs.  Commas separate both paths
/// and a single path's key=value arguments; the ambiguity is resolved by the
/// grammar: a bare `key=value` segment continues the previous spec's
/// argument list, while a segment with no '=' — or one opening a new
/// `kind:key=value` form (':' before the first '=') — starts a new spec.
/// So `"zf,kbest:width=16,gsra"` is three paths, and
/// `"sa:reads=4,sweeps=40,gsra:reads=10"` is sa (two args) followed by
/// gsra (one arg).
[[nodiscard]] std::vector<path_spec> parse_spec_list(const std::string& text);

/// Everything one channel use hands to a detection path.
struct path_context {
    const wireless::mimo_instance& instance;  ///< y = Hx + n plus ground truth
    /// Shared QUBO reduction of `instance` (the QuAMax transform), computed
    /// once per use and reused by every QUBO-based path.  Non-null whenever
    /// any configured path reports needs_qubo(); paths that do not need it
    /// must ignore it.
    const detect::ml_qubo* reduced = nullptr;
    util::rng& rng;  ///< per-(use, path) derived stream — the ONLY randomness source
    /// Per-worker reusable scratch (paths/workspace.h).  Every path runs in
    /// it and throws std::invalid_argument when it is null.  A path's bits
    /// and ml_cost must not depend on the workspace's prior contents (only
    /// timings may differ).
    workspace* ws = nullptr;
};

/// One stage timing of a path's solve; its name is the path's
/// stage_names() entry at the same index.
struct stage_time {
    double service_us = 0.0;
};

/// What one detection path produces for one channel use.
struct path_result {
    qubo::bit_vector bits;  ///< detected bits (natural map, comparable to tx_bits)
    double ml_cost = 0.0;   ///< ||y - H x_hat||^2 of the detected word
    /// Per-stage timings, one per stage_names() entry and in its order.
    std::vector<stage_time> stages;
    /// Per-bit LLRs of the detected word, filled ONLY by an explicit
    /// soft_output() call (run_into leaves it untouched, so the hard path
    /// pays nothing).  Canonical layout and sign convention of
    /// wireless/soft.h: user-major I-then-Q, positive favours bit 0, values
    /// clamped into [-llr_cap, llr_cap].  The vector is resized in place —
    /// a reused result in a warmed-up workspace loop stays allocation-free.
    std::vector<double> llrs;
};

/// One detection path: classical detector, QUBO heuristic, or hybrid
/// classical-quantum structure — the pipeline does not care which.
class detection_path {
public:
    virtual ~detection_path() = default;

    /// Detects one channel use into `out`, which the caller may reuse across
    /// uses (rewrite bits, ml_cost and stages; leave llrs alone).  Must be
    /// const-thread-safe (called concurrently from pool workers), draw
    /// randomness only from `ctx.rng`, and not let bits or ml_cost depend
    /// on what `out` held before.
    virtual void run_into(const path_context& ctx, path_result& out) const = 0;

    /// Allocating form of run_into: detects one use into a fresh result.
    [[nodiscard]] path_result run(const path_context& ctx) const;

    /// run_into over a batch: result i of `ctxs[i]` goes into `out[i]`.
    /// Throws std::invalid_argument on span length mismatch.
    void run_block(std::span<const path_context> ctxs, std::span<path_result> out) const;

    /// Fills `out.llrs` with per-bit soft information for the detection
    /// carried by `out` (which must hold this path's result for `ctx`, i.e.
    /// soft_output is called after run_into on the same context).  The
    /// soft path is an explicit second call, so callers that never ask for
    /// LLRs are byte-for-byte unaffected.  Must be deterministic (no
    /// ctx.rng draws) and independent of what ctx.ws holds, so LLRs — like
    /// bits — are bit-identical at any thread count and stream block.  Runs
    /// in ctx.ws (std::invalid_argument when it is null; no allocation once
    /// warm): linear paths produce post-equalisation max-log LLRs
    /// (wireless::equalized_llrs_into); tree-search and QUBO-solver paths
    /// produce single-bit-flip recost LLRs (wireless::flip_recost_llrs_into
    /// — for solver paths the QUBO energy gap at the detected word).
    virtual void soft_output(const path_context& ctx, path_result& out) const = 0;

    /// Display name for tables, e.g. "ZF", "K-best", "GS+RA".
    [[nodiscard]] virtual std::string name() const = 0;

    /// Canonical spec reconstructing this path through registry::make, with
    /// every accepted key explicit — so `"kbest"` and `"kbest:width=8"`
    /// canonicalise identically and duplicates are detectable.
    [[nodiscard]] virtual path_spec spec() const = 0;

    /// True when the path consumes the shared QUBO reduction
    /// (path_context::reduced).
    [[nodiscard]] virtual bool needs_qubo() const noexcept { return false; }

    /// Names of the solve stages this path reports, in the order
    /// path_result::stages carries them (e.g. {"detect"}, {"solve"}, or
    /// {"classical", "quantum"}).  Fixed for the lifetime of the path.
    [[nodiscard]] virtual std::vector<std::string> stage_names() const = 0;

    /// Parallel-device count of each solve stage, aligned with
    /// stage_names() — e.g. {1, K} for a K-annealer path whose quantum
    /// stage round-robins one stream over K devices.  The link layer
    /// replays a stage with S > 1 as a pipeline::stage with S round-robin
    /// servers.  Default: one device per stage.
    [[nodiscard]] virtual std::vector<std::size_t> stage_servers() const {
        return std::vector<std::size_t>(stage_names().size(), 1);
    }
};

}  // namespace hcq::paths

#endif  // HCQ_PATHS_DETECTION_PATH_H
