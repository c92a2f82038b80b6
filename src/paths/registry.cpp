// The detection paths and their registry: adapters putting the
// conventional detectors (detect/), the classical QUBO heuristics
// (classical/), and the paper's hybrid GS+RA structure
// (core/hybrid_solver.h) behind the one detection_path interface, one
// factory per kind, and the constant kind table (`kinds`, at the end) that
// registry::make, available() and help() read through util::spec.  A new
// kind is its class, its factory and one table row.
#include "paths/registry.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "classical/greedy.h"
#include "classical/parallel_tempering.h"
#include "classical/simulated_annealing.h"
#include "classical/tabu.h"
#include "core/hybrid_solver.h"
#include "core/schedule.h"
#include "detect/fcsd.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/sic.h"
#include "detect/sphere.h"
#include "linalg/decompose.h"
#include "paths/workspace.h"
#include "util/spec.h"
#include "util/timer.h"
#include "wireless/soft.h"

namespace hcq::paths {
namespace {

/// The family of the constant kind table at the end of this file.
const util::spec::family& family();

/// The solvers' temperature fractions, 0 < cold <= hot, checked here so a
/// spec gets the registry's error rather than the constructor's.
void check_fractions(const path_spec& spec, double hot, double cold) {
    if (!(hot > 0.0)) util::spec::bad_value(family(), spec, "hot", "a number > 0");
    if (!(cold > 0.0 && cold <= hot)) {
        util::spec::bad_value(family(), spec, "cold",
                              "a number in (0, hot], hot = " + util::spec::format_value(hot),
                              cold);
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

/// Single-bit-flip recost soft output of the detected word, the soft output
/// of the tree-search and QUBO paths (wireless::flip_recost_llrs_into), in
/// the workspace's recost buffers.
void recost_soft_output(const path_context& ctx, path_result& out) {
    wireless::flip_recost_llrs_into(ctx.instance, out.bits, require_workspace(ctx).recost,
                                    out.llrs);
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

    void run_into(const path_context& ctx, path_result& out) const override {
        workspace& ws = require_workspace(ctx);
        const util::timer clock;
        out.ml_cost = det_->detect_into(ctx.instance, ws.detect, out.bits);
        out.stages.assign(1, {clock.elapsed_us()});
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
                recost_soft_output(ctx, out);
                return;
        }
    }
    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] path_spec spec() const override { return spec_; }
    [[nodiscard]] std::vector<std::string> stage_names() const override { return {"detect"}; }

private:
    std::shared_ptr<const detect::detector> det_;
    std::string name_;
    path_spec spec_;
    soft_kind soft_;
};

/// A classical QUBO heuristic as a path: one "solve" stage on the shared
/// reduction; the detected word is the best sample, costed against the
/// instance.
class qubo_solver_path final : public detection_path {
public:
    qubo_solver_path(std::unique_ptr<const solvers::solver> solver, path_spec spec)
        : solver_(std::move(solver)), spec_(std::move(spec)) {}

    void run_into(const path_context& ctx, path_result& out) const override {
        require_qubo(ctx);
        workspace& ws = require_workspace(ctx);
        const util::timer clock;
        solver_->solve_best_into(ctx.reduced->model, ctx.rng, ws.solve, out.bits);
        const double solve_us = clock.elapsed_us();
        out.ml_cost = ctx.instance.ml_cost_bits(out.bits, ws.detect.symbols, ws.detect.residual);
        out.stages.assign(1, {solve_us});
    }

    /// Energy-gap soft output: the single-bit-flip ML recost of the
    /// detected word — by the transform round-trip invariant these gaps
    /// equal the QUBO flip deltas at the solver's answer, and unlike a
    /// candidate-list method they need no sample set (solve_best_into keeps
    /// none).
    void soft_output(const path_context& ctx, path_result& out) const override {
        recost_soft_output(ctx, out);
    }
    [[nodiscard]] std::string name() const override { return solver_->name(); }
    [[nodiscard]] path_spec spec() const override { return spec_; }
    [[nodiscard]] bool needs_qubo() const noexcept override { return true; }
    [[nodiscard]] std::vector<std::string> stage_names() const override { return {"solve"}; }

private:
    std::unique_ptr<const solvers::solver> solver_;
    path_spec spec_;
};

/// The paper's hybrid structure as a path: a "classical" stage (measured
/// wall time of the classical module) and a "quantum" stage (programmed
/// annealer occupancy: schedule duration x reads).  Per use it makes one
/// classical-module call, which writes its answer into the result's bits,
/// and one quantum-stage call (hybrid::refine_into) seeded with that answer.
///
/// `devices` > 1 is the paper's §5 multi-device scaling lever (registry kind
/// "kxra"): K interchangeable annealer devices round-robin one stream.  The
/// emulated devices are identical and every (use, path) cell draws from the
/// same derived RNG stream, so detection statistics are bit-identical to the
/// single-device "gsra" with the same knobs — only the pipeline replay
/// differs, where the quantum stage runs on K round-robin servers.
///
/// `init` is the paper's §5 choice of classical module: `gs` (the default
/// greedy search — byte-for-byte the historical behaviour), `tabu` (the
/// classical solver D-Wave hybridises with), or `kbest` (an
/// application-specific tree search: the K-best detector, width 8, run on
/// the channel use itself; its bits are the QUBO's variables by the
/// transform round-trip invariant).
class gs_ra_path final : public detection_path {
public:
    enum class init_kind { gs, tabu, kbest };
    /// The `init=` values, in init_kind order.
    static constexpr std::string_view init_names[] = {"gs", "tabu", "kbest"};

    gs_ra_path(init_kind init, std::size_t reads, double sp, double pause_us,
               std::size_t devices, path_spec spec)
        : schedule_(anneal::anneal_schedule::reverse(sp, pause_us)),
          program_(device_.program(schedule_)),
          reads_(reads),
          devices_(devices),
          spec_(std::move(spec)) {
        switch (init) {
            case init_kind::gs: solver_ = std::make_unique<const solvers::greedy_search>(); break;
            case init_kind::tabu: solver_ = std::make_unique<const solvers::tabu_search>(); break;
            case init_kind::kbest: break;  // detector_ runs on the channel use
        }
    }

    void run_into(const path_context& ctx, path_result& out) const override {
        require_qubo(ctx);
        workspace& ws = require_workspace(ctx);
        const qubo::qubo_model& q = ctx.reduced->model;
        const util::timer clock;
        double energy = 0.0;
        if (solver_ != nullptr) {
            energy = solver_->solve_best_into(q, ctx.rng, ws.solve, out.bits);
        } else {
            (void)detector_.detect_into(ctx.instance, ws.detect, out.bits);
            energy = q.energy(out.bits);
        }
        const double classical_us = clock.elapsed_us();
        (void)hybrid::refine_into(device_, program_, reads_, q, ctx.rng, ws.solve, out.bits,
                                  energy);
        out.ml_cost = ctx.instance.ml_cost_bits(out.bits, ws.detect.symbols, ws.detect.residual);
        const double quantum_us = schedule_.duration_us() * static_cast<double>(reads_);
        out.stages.assign({{classical_us}, {quantum_us}});
    }

    /// Energy-gap soft output, like qubo_solver_path.
    void soft_output(const path_context& ctx, path_result& out) const override {
        recost_soft_output(ctx, out);
    }
    [[nodiscard]] std::string name() const override {
        const std::string base = (solver_ != nullptr ? solver_->name() : "KB") + "+RA";
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

private:
    std::unique_ptr<const solvers::solver> solver_;  ///< gs / tabu; null for kbest
    detect::kbest_detector detector_{8};             ///< kbest
    anneal::annealer_emulator device_;
    anneal::anneal_schedule schedule_;
    anneal::anneal_program program_;  ///< schedule_ programmed once on device_
    std::size_t reads_;
    std::size_t devices_;
    path_spec spec_;
};

std::shared_ptr<const detection_path> make_zf(const path_spec&) {
    return std::make_shared<const detector_path>(std::make_shared<const detect::zf_detector>(),
                                                 "ZF", path_spec{{"zf", {}}},
                                                 detector_path::soft_kind::zf_equalized);
}

std::shared_ptr<const detection_path> make_mmse(const path_spec&) {
    return std::make_shared<const detector_path>(std::make_shared<const detect::mmse_detector>(),
                                                 "MMSE", path_spec{{"mmse", {}}},
                                                 detector_path::soft_kind::mmse_equalized);
}

std::shared_ptr<const detection_path> make_kbest(const path_spec& spec) {
    const std::size_t width = util::spec::positive(family(), spec, "width", 8);
    return std::make_shared<const detector_path>(
        std::make_shared<const detect::kbest_detector>(width), "K-best",
        path_spec{{"kbest", {{"width", std::to_string(width)}}}});
}

std::shared_ptr<const detection_path> make_sphere(const path_spec& spec) {
    const double radius = util::spec::finite(family(), spec, "radius", 0.0);
    if (radius < 0.0) util::spec::bad_value(family(), spec, "radius", "a finite number >= 0");
    return std::make_shared<const detector_path>(
        std::make_shared<const detect::sphere_detector>(radius), "SD",
        path_spec{{"sphere", {{"radius", util::spec::format_value(radius)}}}});
}

std::shared_ptr<const detection_path> make_sic(const path_spec&) {
    return std::make_shared<const detector_path>(std::make_shared<const detect::sic_detector>(),
                                                 "SIC", path_spec{{"sic", {}}});
}

std::shared_ptr<const detection_path> make_fcsd(const path_spec& spec) {
    const std::size_t levels = util::spec::positive(family(), spec, "levels", 1);
    auto det = std::make_shared<const detect::fcsd_detector>(levels);
    std::string display = det->name();
    return std::make_shared<const detector_path>(
        std::move(det), std::move(display),
        path_spec{{"fcsd", {{"levels", std::to_string(levels)}}}});
}

std::shared_ptr<const detection_path> make_sa(const path_spec& spec) {
    solvers::sa_config config;
    config.num_reads = util::spec::positive(family(), spec, "reads", config.num_reads);
    config.num_sweeps = util::spec::positive(family(), spec, "sweeps", config.num_sweeps);
    config.hot_fraction = util::spec::finite(family(), spec, "hot", config.hot_fraction);
    config.cold_fraction = util::spec::finite(family(), spec, "cold", config.cold_fraction);
    check_fractions(spec, config.hot_fraction, config.cold_fraction);
    return std::make_shared<const qubo_solver_path>(
        std::make_unique<const solvers::simulated_annealing>(config),
        path_spec{{"sa",
                   {{"reads", std::to_string(config.num_reads)},
                    {"sweeps", std::to_string(config.num_sweeps)},
                    {"hot", util::spec::format_value(config.hot_fraction)},
                    {"cold", util::spec::format_value(config.cold_fraction)}}}});
}

std::shared_ptr<const detection_path> make_tabu(const path_spec& spec) {
    solvers::tabu_config config;
    config.tenure = util::spec::positive(family(), spec, "tenure", config.tenure);
    config.max_iterations = util::spec::positive(family(), spec, "iters", config.max_iterations);
    config.stall_limit = util::spec::positive(family(), spec, "stall", config.stall_limit);
    return std::make_shared<const qubo_solver_path>(
        std::make_unique<const solvers::tabu_search>(config),
        path_spec{{"tabu",
                   {{"tenure", std::to_string(config.tenure)},
                    {"iters", std::to_string(config.max_iterations)},
                    {"stall", std::to_string(config.stall_limit)}}}});
}

std::shared_ptr<const detection_path> make_pt(const path_spec& spec) {
    solvers::pt_config config;
    config.num_replicas = util::spec::positive(family(), spec, "replicas", config.num_replicas);
    if (config.num_replicas < 2) {
        util::spec::bad_value(family(), spec, "replicas", "an integer >= 2");
    }
    config.num_rounds = util::spec::positive(family(), spec, "rounds", config.num_rounds);
    config.sweeps_per_round =
        util::spec::positive(family(), spec, "sweeps", config.sweeps_per_round);
    config.hot_fraction = util::spec::finite(family(), spec, "hot", config.hot_fraction);
    config.cold_fraction = util::spec::finite(family(), spec, "cold", config.cold_fraction);
    check_fractions(spec, config.hot_fraction, config.cold_fraction);
    return std::make_shared<const qubo_solver_path>(
        std::make_unique<const solvers::parallel_tempering>(config),
        path_spec{{"pt",
                   {{"replicas", std::to_string(config.num_replicas)},
                    {"rounds", std::to_string(config.num_rounds)},
                    {"sweeps", std::to_string(config.sweeps_per_round)},
                    {"hot", util::spec::format_value(config.hot_fraction)},
                    {"cold", util::spec::format_value(config.cold_fraction)}}}});
}

/// gsra and kxra: kxra is gsra with its `k` key, the device count.
std::shared_ptr<const detection_path> make_gs_ra(const path_spec& spec) {
    const auto init = static_cast<gs_ra_path::init_kind>(
        util::spec::one_of(family(), spec, "init", gs_ra_path::init_names, 0));
    const bool bank = spec.kind == "kxra";
    const std::size_t devices = bank ? util::spec::positive(family(), spec, "k", 2) : 1;
    const std::size_t reads = util::spec::positive(family(), spec, "reads", 80);
    const double sp = util::spec::finite(family(), spec, "sp", 0.29);
    const double pause_us = util::spec::finite(family(), spec, "pause_us", 1.0);
    if (!(sp > 0.0 && sp < 1.0)) util::spec::bad_value(family(), spec, "sp", "a number in (0, 1)");
    if (pause_us < 0.0) {
        util::spec::bad_value(family(), spec, "pause_us", "a finite number >= 0");
    }
    // anneal_schedule::reverse's ramp back, 1 - sp us after the pause, must
    // still end later in double arithmetic.
    const double ramp = 1.0 - sp;
    if (!(ramp + ramp + pause_us > ramp + pause_us)) {
        util::spec::bad_value(family(), spec, "pause_us",
                              "a pause short enough that the 1 - sp = " +
                                  util::spec::format_value(ramp) +
                                  " us ramp after it still adds time",
                              pause_us);
    }
    path_spec canonical{
        {spec.kind,
         {{"reads", std::to_string(reads)},
          {"sp", util::spec::format_value(sp)},
          {"pause_us", util::spec::format_value(pause_us)},
          {"init", std::string(gs_ra_path::init_names[static_cast<std::size_t>(init)])}}}};
    if (bank) canonical.args.insert(canonical.args.begin(), {"k", std::to_string(devices)});
    return std::make_shared<const gs_ra_path>(init, reads, sp, pause_us, devices,
                                              std::move(canonical));
}

/// Builds a path from a spec whose kind and keys make() has checked; the
/// factory validates the values.
using path_factory = std::shared_ptr<const detection_path> (*)(const path_spec& spec);

/// One path kind: what make() builds and help() lists.
struct path_info {
    util::spec::kind_row kind;  ///< registry name, summary and accepted keys
    path_factory factory;
};

constexpr util::spec::key_row kbest_keys[] = {
    {"width", "beam width K (positive integer, default 8)"}};
constexpr util::spec::key_row sphere_keys[] = {
    {"radius", "initial squared search radius >= 0 (0 = unbounded, default 0)"}};
constexpr util::spec::key_row fcsd_keys[] = {
    {"levels", "fully-enumerated tree levels (positive integer, default 1)"}};
constexpr util::spec::key_row sa_keys[] = {
    {"reads", "independent restarts (positive integer, default 10)"},
    {"sweeps", "sweeps per read (positive integer, default 100)"},
    {"hot", "T_hot as a fraction of max|Q| (default 1)"},
    {"cold", "T_cold as a fraction of max|Q| (default 0.001)"}};
constexpr util::spec::key_row tabu_keys[] = {
    {"tenure", "iterations a flipped bit stays tabu (default 10)"},
    {"iters", "maximum iterations (default 500)"},
    {"stall", "stop after this many non-improving moves (default 100)"}};
constexpr util::spec::key_row pt_keys[] = {
    {"replicas", "temperature ladder size (default 8)"},
    {"rounds", "sweep+swap rounds (default 50)"},
    {"sweeps", "Metropolis sweeps per replica per round (default 2)"},
    {"hot", "T_hot as a fraction of max|Q| (default 2)"},
    {"cold", "T_cold as a fraction of max|Q| (default 0.01)"}};
/// kxra's keys; gsra takes all but the first, `k`.
constexpr util::spec::key_row kxra_keys[] = {
    {"k", "annealer devices round-robining the stream (positive, default 2)"},
    {"reads", "annealer reads per use (positive integer, default 80)"},
    {"sp", "reverse-anneal switch/pause location s_p in (0,1) (default 0.29)"},
    {"pause_us", "pause time t_p in us (default 1)"},
    {"init", "classical initialiser: gs (default), tabu, or kbest (paper section 5)"}};

/// Every path kind, sorted by kind: available() and help() list it in
/// this order.
constexpr path_info kinds[] = {
    {{"fcsd", "fixed-complexity sphere decoder", fcsd_keys}, make_fcsd},
    {{"gsra", "hybrid classical initialiser + reverse anneal (the paper's design)",
      std::span(kxra_keys).subspan<1>()},
     make_gs_ra},
    {{"kbest", "breadth-first K-best tree search", kbest_keys}, make_kbest},
    {{"kxra", "gsra stream served by K round-robin annealer devices (paper section 5)",
      kxra_keys},
     make_gs_ra},
    {{"mmse", "linear MMSE detector", {}}, make_mmse},
    {{"pt", "parallel tempering on the reduced QUBO", pt_keys}, make_pt},
    {{"sa", "simulated annealing on the reduced QUBO (classical baseline)", sa_keys}, make_sa},
    {{"sic", "successive interference cancellation detector", {}}, make_sic},
    {{"sphere", "exact ML sphere decoder", sphere_keys}, make_sphere},
    {{"tabu", "tabu search on the reduced QUBO", tabu_keys}, make_tabu},
    {{"zf", "linear zero-forcing detector", {}}, make_zf},
};
static_assert(std::adjacent_find(std::begin(kinds), std::end(kinds),
                                 [](const path_info& a, const path_info& b) {
                                     return a.kind.name >= b.kind.name;
                                 }) == std::end(kinds),
              "kinds must be sorted and unique");

constexpr auto kind_rows = util::spec::kind_rows(kinds);

const util::spec::family& family() {
    static constexpr util::spec::family f{"paths", "path kind", "detection path", kind_rows};
    return f;
}

}  // namespace

path_spec path_spec::parse(const std::string& text) {
    // The grammar alone: make() checks the kind and keys, of hand-built
    // specs too, where an unknown kind's error lists what exists.
    return {util::spec::split(family(), text)};
}

std::vector<std::string> registry::available() { return util::spec::names(family()); }

std::string registry::help() {
    return util::spec::help(family(),
                            "detection paths (--paths spec strings: kind or "
                            "kind:key=value,key=value)");
}

std::shared_ptr<const detection_path> registry::make(const path_spec& spec) {
    return kinds[util::spec::check(family(), spec)].factory(spec);
}

std::shared_ptr<const detection_path> registry::make(const std::string& spec_text) {
    return make(path_spec::parse(spec_text));
}

std::vector<std::shared_ptr<const detection_path>> registry::make_all(
    const std::vector<path_spec>& specs) {
    std::vector<std::shared_ptr<const detection_path>> paths;
    paths.reserve(specs.size());
    for (const auto& spec : specs) paths.push_back(make(spec));
    return paths;
}

}  // namespace hcq::paths
