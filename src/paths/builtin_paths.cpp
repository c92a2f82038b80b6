// The built-in detection paths: adapters putting the conventional detectors
// (detect/), the classical QUBO heuristics (classical/), and the paper's
// hybrid GS+RA structure (core/hybrid_solver.h) behind the one
// detection_path interface.  Registered lazily by registry.cpp through
// detail::register_builtin_paths() — see the registry header for why.
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include <algorithm>

#include "classical/greedy.h"
#include "classical/parallel_tempering.h"
#include "classical/simulated_annealing.h"
#include "classical/tabu.h"
#include "core/parallel_runner.h"
#include "core/schedule.h"
#include "detect/fcsd.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/sic.h"
#include "detect/sphere.h"
#include "linalg/decompose.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "util/timer.h"
#include "wireless/soft.h"

namespace hcq::paths {
namespace {

/// Reshapes a reused result's stage list without churning its strings: the
/// built-in stage names all fit in the small-string buffer, so re-assigning
/// them never allocates.
void set_stage(path_result& out, std::size_t index, const char* name, double service_us) {
    out.stages[index].name = name;
    out.stages[index].service_us = service_us;
}

void check_block_sizes(std::span<const path_context> ctxs, std::span<path_result> out) {
    if (ctxs.size() != out.size()) {
        throw std::invalid_argument("detection_path::run_block: span length mismatch");
    }
}

/// Guard for QUBO-consuming paths: the caller promised a shared reduction
/// whenever any configured path reports needs_qubo().
void require_qubo(const path_context& ctx) {
    if (ctx.reduced == nullptr) {
        throw std::invalid_argument(
            "paths: path_context.reduced is null but the path needs the QUBO reduction");
    }
}

/// Guard for every built-in path: detection runs in the caller's
/// per-worker workspace (paths/workspace.h).
workspace& require_workspace(const path_context& ctx) {
    if (ctx.ws == nullptr) {
        throw std::invalid_argument(
            "paths: path_context.ws is null but the built-in paths need a workspace");
    }
    return *ctx.ws;
}

/// Post-equalisation max-log soft output of the linear detection paths:
/// equalise through the normal equations (H^H H + load I)^-1 H^H y — load 0
/// is zero forcing — and scale each stream's max-log metric by the
/// per-stream noise enhancement sigma^2 [(H^H H + load I)^-1]_uu.  The
/// effective sigma^2 is floored (wireless::llr_noise_floor) so a noiseless
/// instance yields large-but-finite confidences, and every LLR is clamped
/// by equalized_llrs_into.  Deterministic, and harden(llrs) reproduces the
/// linear detector's hard decisions exactly: per symbol, the bit pattern
/// minimising the max-log metric IS the nearest constellation point the
/// detector slices to.  Every intermediate lives in the workspace, whose
/// prior contents never reach the LLRs; a warm workspace allocates nothing.
void linear_soft_output(const wireless::mimo_instance& inst, double load, workspace& ws,
                        path_result& out) {
    linear_soft_scratch& s = ws.soft;
    linalg::gram_into(inst.h, s.gram);
    for (std::size_t i = 0; i < s.gram.rows(); ++i) s.gram(i, i) += load;
    linalg::inverse_into(s.gram, s.inv, s.gram_inv);
    linalg::herm_matvec_into(inst.h, inst.y, s.hy);
    linalg::matvec_into(s.gram_inv, s.hy, s.equalized);
    const double sigma_sq = std::max(inst.noise_variance, wireless::llr_noise_floor);
    s.stream_nv.resize(inst.num_users);
    for (std::size_t u = 0; u < inst.num_users; ++u) {
        s.stream_nv[u] = sigma_sq * std::max(s.gram_inv(u, u).real(), 1e-12);
    }
    wireless::equalized_llrs_into(inst, s.equalized, s.stream_nv, out.llrs);
}

/// A conventional detector as a path: one "detect" stage straight on y and
/// H, no QUBO, no randomness, no solver form.  `soft` selects the
/// soft_output method: post-equalisation max-log for the linear detectors,
/// single-bit-flip ML recost for the tree searches.
class detector_path final : public detection_path {
public:
    enum class soft_kind { zf_equalized, mmse_equalized, recost };

    detector_path(std::shared_ptr<const detect::detector> det, std::string display_name,
                  path_spec spec, soft_kind soft = soft_kind::recost)
        : det_(std::move(det)), name_(std::move(display_name)), spec_(std::move(spec)),
          soft_(soft) {}

    [[nodiscard]] path_result run(const path_context& ctx) const override {
        path_result out;
        run_cell(ctx, out);
        return out;
    }
    void run_block(std::span<const path_context> ctxs, std::span<path_result> out) const override {
        check_block_sizes(ctxs, out);
        for (std::size_t i = 0; i < ctxs.size(); ++i) run_cell(ctxs[i], out[i]);
    }
    void soft_output(const path_context& ctx, path_result& out) const override {
        switch (soft_) {
            case soft_kind::zf_equalized:
                linear_soft_output(ctx.instance, 0.0, require_workspace(ctx), out);
                return;
            case soft_kind::mmse_equalized:
                linear_soft_output(ctx.instance,
                                   ctx.instance.noise_variance /
                                       wireless::mean_symbol_energy(ctx.instance.mod),
                                   require_workspace(ctx), out);
                return;
            case soft_kind::recost:
                wireless::flip_recost_llrs_into(ctx.instance, out.bits, out.llrs);
                return;
        }
    }
    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] path_spec spec() const override { return spec_; }
    [[nodiscard]] std::vector<std::string> stage_names() const override { return {"detect"}; }

private:
    void run_cell(const path_context& ctx, path_result& out) const {
        workspace& ws = require_workspace(ctx);
        const util::timer clock;
        detect::detection_result& detected = ws.detect.result;
        det_->detect_into(ctx.instance, ws.detect, detected);
        out.bits = detected.bits;  // copy-assign: reuses out's capacity
        out.ml_cost = detected.ml_cost;
        out.stages.resize(1);
        set_stage(out, 0, "detect", clock.elapsed_us());
    }

    std::shared_ptr<const detect::detector> det_;
    std::string name_;
    path_spec spec_;
    soft_kind soft_;
};

/// A classical QUBO heuristic as a path: one "solve" stage on the shared
/// reduction; the detected word is the best sample, costed against the
/// instance.  Doubles as a sweep solver through as_solver().
class qubo_solver_path final : public detection_path {
public:
    qubo_solver_path(std::shared_ptr<const solvers::solver> solver, path_spec spec)
        : solver_(std::move(solver)), spec_(std::move(spec)) {}

    [[nodiscard]] path_result run(const path_context& ctx) const override {
        path_result out;
        run_cell(ctx, out);
        return out;
    }
    void run_block(std::span<const path_context> ctxs, std::span<path_result> out) const override {
        check_block_sizes(ctxs, out);
        for (std::size_t i = 0; i < ctxs.size(); ++i) run_cell(ctxs[i], out[i]);
    }
    /// Energy-gap soft output: the single-bit-flip ML recost of the
    /// detected word — by the transform round-trip invariant these gaps
    /// equal the QUBO flip deltas at the solver's answer, and unlike a
    /// candidate-list method they need no sample set (solve_best_into keeps
    /// none).
    void soft_output(const path_context& ctx, path_result& out) const override {
        wireless::flip_recost_llrs_into(ctx.instance, out.bits, out.llrs);
    }
    [[nodiscard]] std::string name() const override { return solver_->name(); }
    [[nodiscard]] path_spec spec() const override { return spec_; }
    [[nodiscard]] bool needs_qubo() const noexcept override { return true; }
    [[nodiscard]] std::vector<std::string> stage_names() const override { return {"solve"}; }
    [[nodiscard]] std::shared_ptr<const solvers::solver> as_solver() const override {
        return solver_;
    }

private:
    void run_cell(const path_context& ctx, path_result& out) const {
        require_qubo(ctx);
        workspace& ws = require_workspace(ctx);
        const util::timer clock;
        solver_->solve_best_into(ctx.reduced->model, ctx.rng, ws.solve, out.bits);
        const double solve_us = clock.elapsed_us();
        out.ml_cost = ctx.instance.ml_cost_bits(out.bits, ws.detect.symbols, ws.detect.residual);
        out.stages.resize(1);
        set_stage(out, 0, "solve", solve_us);
    }

    std::shared_ptr<const solvers::solver> solver_;
    path_spec spec_;
};

/// The paper's hybrid structure as a path: "classical" (measured initialiser
/// wall time) and "quantum" (programmed annealer occupancy: schedule
/// duration x reads) stages.  Owns its initialiser and device through the
/// owning hybrid_solver_adapter, so the path — and any solver handed out by
/// as_solver() — is safe to construct from temporaries and to outlive this
/// translation unit's statics.
///
/// `devices` > 1 is the paper's §5 multi-device scaling lever (registry kind
/// "kxra"): K interchangeable annealer devices round-robin one stream.  The
/// emulated devices are identical and every (use, path) cell draws from the
/// same derived RNG stream, so detection statistics are bit-identical to the
/// single-device "gsra" with the same knobs — only the pipeline replay
/// differs, where the quantum stage runs on K round-robin servers.
///
/// `init` is the paper's §5 initialiser choice: `gs` (the default greedy
/// search — byte-for-byte the historical behaviour), `tabu` (the classical
/// solver D-Wave hybridises with, doubling as an initialiser), or `kbest`
/// (an application-specific tree-search initialiser: the K-best detector,
/// width 8, run on the channel use itself and fed to the reverse anneal as
/// a fixed initial state).  `kbest` consumes the MIMO instance, so it has
/// no pure-QUBO solver form — as_solver() returns nullptr for it.
class gs_ra_path final : public detection_path {
public:
    enum class init_kind { gs, tabu, kbest };

    /// Parses an `init=` spec value; throws listing the accepted names.
    static init_kind parse_init(const path_spec& spec) {
        const std::string* value = spec.find("init");
        if (value == nullptr || *value == "gs") return init_kind::gs;
        if (*value == "tabu") return init_kind::tabu;
        if (*value == "kbest") return init_kind::kbest;
        throw std::invalid_argument("paths: " + spec.kind + ": bad init value '" + *value +
                                    "' (expected gs, tabu, or kbest)");
    }

    static const char* to_string(init_kind init) {
        switch (init) {
            case init_kind::gs: return "gs";
            case init_kind::tabu: return "tabu";
            case init_kind::kbest: return "kbest";
        }
        return "?";
    }

    gs_ra_path(init_kind init, std::size_t reads, double sp, double pause_us,
               std::size_t devices, path_spec spec)
        : schedule_(anneal::anneal_schedule::reverse(sp, pause_us)),
          reads_(reads),
          devices_(devices),
          spec_(std::move(spec)) {
        auto device = std::make_shared<const anneal::annealer_emulator>();
        switch (init) {
            case init_kind::gs:
                adapter_ = std::make_shared<const hybrid::hybrid_solver_adapter>(
                    std::make_shared<const solvers::greedy_search>(), std::move(device),
                    schedule_, reads_);
                break;
            case init_kind::tabu:
                adapter_ = std::make_shared<const hybrid::hybrid_solver_adapter>(
                    std::make_shared<const solvers::tabu_search>(), std::move(device),
                    schedule_, reads_);
                break;
            case init_kind::kbest:
                detector_ = std::make_shared<const detect::kbest_detector>(8);
                device_ = std::move(device);
                break;
        }
    }

    [[nodiscard]] path_result run(const path_context& ctx) const override {
        path_result out;
        run_cell(ctx, out);
        return out;
    }
    void run_block(std::span<const path_context> ctxs, std::span<path_result> out) const override {
        check_block_sizes(ctxs, out);
        for (std::size_t i = 0; i < ctxs.size(); ++i) run_cell(ctxs[i], out[i]);
    }
    /// Energy-gap soft output, like qubo_solver_path.
    void soft_output(const path_context& ctx, path_result& out) const override {
        wireless::flip_recost_llrs_into(ctx.instance, out.bits, out.llrs);
    }
    [[nodiscard]] std::string name() const override {
        const std::string base = adapter_ != nullptr ? adapter_->name() : "KB+RA";
        return devices_ > 1 ? base + "x" + std::to_string(devices_) : base;
    }
    [[nodiscard]] path_spec spec() const override { return spec_; }
    [[nodiscard]] bool needs_qubo() const noexcept override { return true; }
    [[nodiscard]] std::vector<std::string> stage_names() const override {
        return {"classical", "quantum"};
    }
    [[nodiscard]] std::vector<std::size_t> stage_servers() const override {
        return {1, devices_};
    }
    [[nodiscard]] std::shared_ptr<const solvers::solver> as_solver() const override {
        return adapter_;  // nullptr for init=kbest: it needs the MIMO instance
    }

private:
    void run_cell(const path_context& ctx, path_result& out) const {
        require_qubo(ctx);
        workspace& ws = require_workspace(ctx);
        if (adapter_ != nullptr) {
            hybrid::hybrid_solver::timings times;
            adapter_->hybrid().solve_best_into(ctx.reduced->model, ctx.rng, ws.solve, out.bits,
                                               times);
            out.ml_cost =
                ctx.instance.ml_cost_bits(out.bits, ws.detect.symbols, ws.detect.residual);
            out.stages.resize(2);
            set_stage(out, 0, "classical", times.classical_us);
            set_stage(out, 1, "quantum", times.quantum_us);
            return;
        }
        // kbest initialiser: detect on the channel use itself (measured
        // classical time), then seed the reverse anneal with the result.
        // Constructing the per-use initialiser copies the seed bits, so this
        // branch is not allocation-free — it is an application-specific
        // variant, not one of the hot-path defaults.
        const auto detected = detector_->detect(ctx.instance);
        const solvers::fixed_initializer init(detected.bits, "KB");
        const hybrid::hybrid_solver solver(init, *device_, schedule_, reads_);
        const auto result = solver.solve(ctx.reduced->model, ctx.rng);
        out.bits = result.best_bits;
        out.ml_cost = ctx.instance.ml_cost_bits(out.bits);
        out.stages.resize(2);
        set_stage(out, 0, "classical", detected.elapsed_us + result.classical_us);
        set_stage(out, 1, "quantum", result.quantum_us);
    }

    std::shared_ptr<const hybrid::hybrid_solver_adapter> adapter_;  ///< gs / tabu
    std::shared_ptr<const detect::kbest_detector> detector_;        ///< kbest only
    std::shared_ptr<const anneal::annealer_emulator> device_;       ///< kbest only
    anneal::anneal_schedule schedule_;
    std::size_t reads_;
    std::size_t devices_;
    path_spec spec_;
};

path_info zf_info() {
    return {.kind = "zf",
            .summary = "linear zero-forcing detector",
            .keys = {},
            .factory = [](const path_spec&) -> std::shared_ptr<const detection_path> {
                return std::make_shared<const detector_path>(
                    std::make_shared<const detect::zf_detector>(), "ZF", path_spec{"zf", {}},
                    detector_path::soft_kind::zf_equalized);
            }};
}

path_info mmse_info() {
    return {.kind = "mmse",
            .summary = "linear MMSE detector",
            .keys = {},
            .factory = [](const path_spec&) -> std::shared_ptr<const detection_path> {
                return std::make_shared<const detector_path>(
                    std::make_shared<const detect::mmse_detector>(), "MMSE",
                    path_spec{"mmse", {}}, detector_path::soft_kind::mmse_equalized);
            }};
}

path_info kbest_info() {
    return {.kind = "kbest",
            .summary = "breadth-first K-best tree search",
            .keys = {{"width", "beam width K (positive integer, default 8)"}},
            .factory = [](const path_spec& spec) -> std::shared_ptr<const detection_path> {
                const std::size_t width = spec_positive_size(spec, "width", 8);
                return std::make_shared<const detector_path>(
                    std::make_shared<const detect::kbest_detector>(width), "K-best",
                    path_spec{"kbest", {{"width", std::to_string(width)}}});
            }};
}

path_info sphere_info() {
    return {.kind = "sphere",
            .summary = "exact ML sphere decoder",
            .keys = {{"radius", "initial squared search radius (0 = unbounded, default 0)"}},
            .factory = [](const path_spec& spec) -> std::shared_ptr<const detection_path> {
                const double radius = spec_double(spec, "radius", 0.0);
                return std::make_shared<const detector_path>(
                    std::make_shared<const detect::sphere_detector>(radius), "SD",
                    path_spec{"sphere", {{"radius", format_spec_value(radius)}}});
            }};
}

path_info sic_info() {
    return {.kind = "sic",
            .summary = "successive interference cancellation detector",
            .keys = {},
            .factory = [](const path_spec&) -> std::shared_ptr<const detection_path> {
                return std::make_shared<const detector_path>(
                    std::make_shared<const detect::sic_detector>(), "SIC", path_spec{"sic", {}});
            }};
}

path_info fcsd_info() {
    return {.kind = "fcsd",
            .summary = "fixed-complexity sphere decoder",
            .keys = {{"levels", "fully-enumerated tree levels (positive integer, default 1)"}},
            .factory = [](const path_spec& spec) -> std::shared_ptr<const detection_path> {
                const std::size_t levels = spec_positive_size(spec, "levels", 1);
                auto det = std::make_shared<const detect::fcsd_detector>(levels);
                std::string display = det->name();
                return std::make_shared<const detector_path>(
                    std::move(det), std::move(display),
                    path_spec{"fcsd", {{"levels", std::to_string(levels)}}});
            }};
}

path_info sa_info() {
    return {.kind = "sa",
            .summary = "simulated annealing on the reduced QUBO (classical baseline)",
            .keys = {{"reads", "independent restarts (positive integer, default 10)"},
                     {"sweeps", "sweeps per read (positive integer, default 100)"},
                     {"hot", "T_hot as a fraction of max|Q| (default 1)"},
                     {"cold", "T_cold as a fraction of max|Q| (default 0.001)"}},
            .factory = [](const path_spec& spec) -> std::shared_ptr<const detection_path> {
                solvers::sa_config config;
                config.num_reads = spec_positive_size(spec, "reads", config.num_reads);
                config.num_sweeps = spec_positive_size(spec, "sweeps", config.num_sweeps);
                config.hot_fraction = spec_double(spec, "hot", config.hot_fraction);
                config.cold_fraction = spec_double(spec, "cold", config.cold_fraction);
                return std::make_shared<const qubo_solver_path>(
                    std::make_shared<const solvers::simulated_annealing>(config),
                    path_spec{"sa",
                              {{"reads", std::to_string(config.num_reads)},
                               {"sweeps", std::to_string(config.num_sweeps)},
                               {"hot", format_spec_value(config.hot_fraction)},
                               {"cold", format_spec_value(config.cold_fraction)}}});
            }};
}

path_info tabu_info() {
    return {.kind = "tabu",
            .summary = "tabu search on the reduced QUBO",
            .keys = {{"tenure", "iterations a flipped bit stays tabu (default 10)"},
                     {"iters", "maximum iterations (default 500)"},
                     {"stall", "stop after this many non-improving moves (default 100)"}},
            .factory = [](const path_spec& spec) -> std::shared_ptr<const detection_path> {
                solvers::tabu_config config;
                config.tenure = spec_positive_size(spec, "tenure", config.tenure);
                config.max_iterations = spec_positive_size(spec, "iters", config.max_iterations);
                config.stall_limit = spec_positive_size(spec, "stall", config.stall_limit);
                return std::make_shared<const qubo_solver_path>(
                    std::make_shared<const solvers::tabu_search>(config),
                    path_spec{"tabu",
                              {{"tenure", std::to_string(config.tenure)},
                               {"iters", std::to_string(config.max_iterations)},
                               {"stall", std::to_string(config.stall_limit)}}});
            }};
}

path_info pt_info() {
    return {.kind = "pt",
            .summary = "parallel tempering on the reduced QUBO",
            .keys = {{"replicas", "temperature ladder size (default 8)"},
                     {"rounds", "sweep+swap rounds (default 50)"},
                     {"sweeps", "Metropolis sweeps per replica per round (default 2)"},
                     {"hot", "T_hot as a fraction of max|Q| (default 2)"},
                     {"cold", "T_cold as a fraction of max|Q| (default 0.01)"}},
            .factory = [](const path_spec& spec) -> std::shared_ptr<const detection_path> {
                solvers::pt_config config;
                config.num_replicas = spec_positive_size(spec, "replicas", config.num_replicas);
                config.num_rounds = spec_positive_size(spec, "rounds", config.num_rounds);
                config.sweeps_per_round =
                    spec_positive_size(spec, "sweeps", config.sweeps_per_round);
                config.hot_fraction = spec_double(spec, "hot", config.hot_fraction);
                config.cold_fraction = spec_double(spec, "cold", config.cold_fraction);
                return std::make_shared<const qubo_solver_path>(
                    std::make_shared<const solvers::parallel_tempering>(config),
                    path_spec{"pt",
                              {{"replicas", std::to_string(config.num_replicas)},
                               {"rounds", std::to_string(config.num_rounds)},
                               {"sweeps", std::to_string(config.sweeps_per_round)},
                               {"hot", format_spec_value(config.hot_fraction)},
                               {"cold", format_spec_value(config.cold_fraction)}}});
            }};
}

path_info gsra_info() {
    return {.kind = "gsra",
            .summary = "hybrid classical initialiser + reverse anneal (the paper's design)",
            .keys = {{"reads", "annealer reads per use (positive integer, default 80)"},
                     {"sp", "reverse-anneal switch/pause location s_p in (0,1) (default 0.29)"},
                     {"pause_us", "pause time t_p in us (default 1)"},
                     {"init",
                      "classical initialiser: gs (default), tabu, or kbest "
                      "(paper section 5; kbest has no sweep-solver form)"}},
            .factory = [](const path_spec& spec) -> std::shared_ptr<const detection_path> {
                const auto init = gs_ra_path::parse_init(spec);
                const std::size_t reads = spec_positive_size(spec, "reads", 80);
                const double sp = spec_double(spec, "sp", 0.29);
                const double pause_us = spec_double(spec, "pause_us", 1.0);
                return std::make_shared<const gs_ra_path>(
                    init, reads, sp, pause_us, 1,
                    path_spec{"gsra",
                              {{"reads", std::to_string(reads)},
                               {"sp", format_spec_value(sp)},
                               {"pause_us", format_spec_value(pause_us)},
                               {"init", gs_ra_path::to_string(init)}}});
            }};
}

path_info kxra_info() {
    return {.kind = "kxra",
            .summary = "gsra stream served by K round-robin annealer devices (paper section 5)",
            .keys = {{"k", "annealer devices round-robining the stream (positive, default 2)"},
                     {"reads", "annealer reads per use (positive integer, default 80)"},
                     {"sp", "reverse-anneal switch/pause location s_p in (0,1) (default 0.29)"},
                     {"pause_us", "pause time t_p in us (default 1)"},
                     {"init",
                      "classical initialiser: gs (default), tabu, or kbest "
                      "(paper section 5; kbest has no sweep-solver form)"}},
            .factory = [](const path_spec& spec) -> std::shared_ptr<const detection_path> {
                const auto init = gs_ra_path::parse_init(spec);
                const std::size_t devices = spec_positive_size(spec, "k", 2);
                const std::size_t reads = spec_positive_size(spec, "reads", 80);
                const double sp = spec_double(spec, "sp", 0.29);
                const double pause_us = spec_double(spec, "pause_us", 1.0);
                return std::make_shared<const gs_ra_path>(
                    init, reads, sp, pause_us, devices,
                    path_spec{"kxra",
                              {{"k", std::to_string(devices)},
                               {"reads", std::to_string(reads)},
                               {"sp", format_spec_value(sp)},
                               {"pause_us", format_spec_value(pause_us)},
                               {"init", gs_ra_path::to_string(init)}}});
            }};
}

}  // namespace

namespace detail {

void register_builtin_paths() {
    registry::register_path(zf_info());
    registry::register_path(mmse_info());
    registry::register_path(kbest_info());
    registry::register_path(sphere_info());
    registry::register_path(sic_info());
    registry::register_path(fcsd_info());
    registry::register_path(sa_info());
    registry::register_path(tabu_info());
    registry::register_path(pt_info());
    registry::register_path(gsra_info());
    registry::register_path(kxra_info());
}

}  // namespace detail
}  // namespace hcq::paths
