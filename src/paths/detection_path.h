// The unified detection-path API — the paper's core argument made literal.
//
// Kim & Venturelli's point (HotNets 2020, Figure 1) is that classical
// detectors, quantum annealing, and hybrid classical-quantum structures are
// interchangeable *modules* of one detection pipeline.  This layer is the
// single polymorphic interface behind which all of them live: a
// `detection_path` consumes one channel-use context (the MIMO instance, the
// shared QUBO reduction when it needs one, and a derived RNG stream) and
// returns the detected bits, the ML cost, and named per-stage timings.
//
// Paths are constructed from *spec strings* through `paths::registry`
// (registry.h): `"zf"`, `"kbest:width=16"`, `"gsra:reads=80,sp=0.29"` — so
// adding a new scenario (a new tree search, a QAOA-style solver, a
// multi-annealer stage) means registering one factory, not editing an enum,
// a parser, a switch, and a config struct.
//
// Determinism contract: a path must draw randomness only from `ctx.rng`.
// Callers (link::run_link_simulation, hybrid::parallel_runner) hand every
// (use, path) cell its own derived stream, which is what keeps BER/ML-cost
// statistics bit-identical at any thread count.  Only the timings in
// `path_result::stages` are measured wall time (or programmed device
// occupancy) and vary run to run.
#ifndef HCQ_PATHS_DETECTION_PATH_H
#define HCQ_PATHS_DETECTION_PATH_H

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "classical/solver.h"
#include "detect/transform.h"
#include "util/rng.h"
#include "wireless/mimo.h"

namespace hcq::paths {

struct workspace;  // per-worker reusable state (paths/workspace.h)

/// A parsed path specification: a registry kind plus ordered key=value
/// arguments.  Text form: `kind` or `kind:key=value,key=value` — e.g.
/// `"kbest:width=16"`, `"gsra:reads=80,sp=0.29,pause_us=1"`.
struct path_spec {
    std::string kind;  ///< registry name, e.g. "kbest"
    std::vector<std::pair<std::string, std::string>> args;  ///< ordered key=value pairs

    /// Parses one spec string; throws std::invalid_argument (with the
    /// malformed fragment named) on an empty kind, a missing '=', or an
    /// empty key.  Does NOT check the kind against the registry — that
    /// happens in registry::make, where the error can list what exists.
    [[nodiscard]] static path_spec parse(const std::string& text);

    /// Canonical text form: `kind` when there are no args, otherwise
    /// `kind:k1=v1,k2=v2` in stored order.
    [[nodiscard]] std::string to_string() const;

    /// Value of `key`, or nullptr when absent.
    [[nodiscard]] const std::string* find(const std::string& key) const;
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
    /// Per-worker reusable scratch (paths/workspace.h).  The built-in paths
    /// run in it and throw std::invalid_argument when it is null;
    /// out-of-tree paths may ignore it.  A path's bits and ml_cost must not
    /// depend on the workspace's prior contents (only timings may differ).
    workspace* ws = nullptr;
};

/// One named stage timing of a path's solve.
struct stage_time {
    std::string name;
    double service_us = 0.0;
};

/// What one detection path produces for one channel use.
struct path_result {
    qubo::bit_vector bits;  ///< detected bits (natural map, comparable to tx_bits)
    double ml_cost = 0.0;   ///< ||y - H x_hat||^2 of the detected word
    /// Per-stage timings, matching stage_names() in order and count.
    std::vector<stage_time> stages;
    /// Per-bit LLRs of the detected word, filled ONLY by an explicit
    /// soft_output() call (run/run_block leave it untouched, so the hard
    /// path pays nothing).  Canonical layout and sign convention of
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

    /// Detects one channel use.  Must be const-thread-safe (called
    /// concurrently from pool workers) and must draw randomness only from
    /// `ctx.rng`.
    [[nodiscard]] virtual path_result run(const path_context& ctx) const = 0;

    /// Detects a batch of channel uses, writing result i of `ctxs[i]` into
    /// `out[i]` (reused by the caller across batches — a warmed-up result
    /// vector plus workspace-carrying contexts make the built-in paths
    /// allocation-free per use).  Contract: out[i] carries exactly what
    /// run(ctxs[i]) would return (timings excepted), so callers may batch or
    /// not freely.  The default is that loop; built-in paths override run()'s
    /// innards rather than this, and out-of-tree paths need not override
    /// anything.  Throws std::invalid_argument on span length mismatch.
    virtual void run_block(std::span<const path_context> ctxs,
                           std::span<path_result> out) const;

    /// Fills `out.llrs` with per-bit soft information for the detection
    /// carried by `out` (which must hold this path's result for `ctx`, i.e.
    /// soft_output is called after run / run_block on the same context).
    /// Mirrors the `run_block` opt-in pattern: the soft path is an
    /// explicit second call, so paths — and callers — that never ask for
    /// LLRs are byte-for-byte unaffected, and out-of-tree paths compile
    /// unchanged: the DEFAULT emits clamped hard decisions (+/-llr_cap from
    /// out.bits), which downstream decoding treats as maximal-confidence
    /// soft values.  Overrides must be deterministic (no ctx.rng draws) and
    /// independent of what ctx.ws holds, so LLRs — like bits — are
    /// bit-identical at any thread count and stream block.  The built-in
    /// overrides: linear paths produce post-equalisation max-log LLRs
    /// (wireless::equalized_llrs_into) with every intermediate in ctx.ws
    /// (std::invalid_argument when it is null; no allocation once warm);
    /// tree-search and QUBO-solver paths produce single-bit-flip recost
    /// LLRs (wireless::flip_recost_llrs_into — for solver paths the QUBO
    /// energy gap at the detected word).
    virtual void soft_output(const path_context& ctx, path_result& out) const;

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

    /// The path's QUBO-solver form for (instances x solvers) sweeps
    /// (hybrid::parallel_runner), or nullptr when the path has none (the
    /// conventional detectors, which never touch a QUBO).  The returned
    /// solver owns everything it references and may outlive the path.
    [[nodiscard]] virtual std::shared_ptr<const solvers::solver> as_solver() const {
        return nullptr;
    }
};

/// Typed argument access for path factories.  Each throws
/// std::invalid_argument naming the path kind, the key, the offending value,
/// and the expected form.
[[nodiscard]] std::size_t spec_positive_size(const path_spec& spec, const std::string& key,
                                             std::size_t fallback);
[[nodiscard]] double spec_double(const path_spec& spec, const std::string& key, double fallback);

/// Canonical text form of a double spec value ("0.29", "0.001", "2000") —
/// round-trips through spec_double.
[[nodiscard]] std::string format_spec_value(double value);

}  // namespace hcq::paths

#endif  // HCQ_PATHS_DETECTION_PATH_H
