#include "arq/arq.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/spec.h"

namespace hcq::arq {
namespace {

// Stream tag keeping the replay's modeled frame-error draws disjoint from
// every other derived stream ("arq_ERRm").
constexpr std::uint64_t error_model_domain = 0x6172715f4552526dULL;

constexpr util::spec::key_row keys[] = {
    {"deadline_us", "latency deadline: us >= 0, auto (open-loop p99) or none (default)"},
    {"max_retx", "retransmissions per frame, 0 (open loop) to 64 (default 1)"},
    {"combining", "LLRs across a coded frame's attempts: chase (default) or plain"}};
constexpr util::spec::kind_row kinds[] = {{"", "", keys}};
constexpr util::spec::family family{"arq", "", "", kinds};

constexpr std::string_view combining_names[] = {"chase", "plain"};

}  // namespace

const char* to_string(combining_mode mode) noexcept {
    return mode == combining_mode::chase ? "chase" : "plain";
}

std::string arq_config::to_string() const {
    std::ostringstream out;
    out << "deadline_us=";
    if (deadline_auto) {
        out << "auto";
    } else if (deadline_us == no_deadline) {
        out << "none";
    } else {
        out << util::spec::format_value(deadline_us);
    }
    out << ",max_retx=" << max_retx << ",combining=" << arq::to_string(combining);
    return out.str();
}

arq_config parse_arq(const std::string& text) {
    arq_config config;
    // A bare `--arq` flag parses to "true" (util::flag_set); treat it — and
    // an empty string — as "enable with defaults".
    if (text.empty() || text == "true" || text == "1") return config;
    const util::spec::parsed p = util::spec::parse(family, text);
    if (const std::string* deadline = p.find("deadline_us")) {
        config.deadline_auto = *deadline == "auto";  // resolved per path by the caller
        if (!config.deadline_auto && *deadline != "none") {
            const auto us = util::spec::parse_double_value(*deadline);
            if (!us.has_value() || !(*us >= 0.0)) {
                util::spec::bad_value(family, p, "deadline_us", "auto, none, or a number >= 0");
            }
            config.deadline_us = *us;
        }
    }
    config.max_retx = util::spec::non_negative(family, p, "max_retx", config.max_retx);
    if (config.max_retx > max_retx_limit) {
        util::spec::bad_value(family, p, "max_retx",
                              "an integer in [0, " + std::to_string(max_retx_limit) + "]");
    }
    config.combining = static_cast<combining_mode>(
        util::spec::one_of(family, p, "combining", combining_names, 0));
    return config;
}

std::string help() { return util::spec::help(family, "ARQ keys (--arq key=value,...)"); }

bool needs_retx(const arq_config& config, bool bits_ok, std::size_t attempt) noexcept {
    if (attempt >= config.max_retx) return false;
    return !bits_ok || config.deadline_us == 0.0;
}

void counters::add_frame(std::size_t attempts_used, std::size_t wrong, bool first_ok,
                         bool final_ok) {
    ++frames;
    attempts += attempts_used;
    wrong_attempts += wrong;
    if (!final_ok) ++residual_errors;
    if (!first_ok && final_ok) ++corrected_frames;
}

double counters::residual_fer() const noexcept {
    return frames > 0 ? static_cast<double>(residual_errors) / static_cast<double>(frames) : 0.0;
}

double counters::retx_rate() const noexcept {
    return frames > 0 ? static_cast<double>(retransmissions()) / static_cast<double>(frames)
                      : 0.0;
}

double counters::mean_attempts() const noexcept {
    return frames > 0 ? static_cast<double>(attempts) / static_cast<double>(frames) : 0.0;
}

double counters::attempt_error_rate() const noexcept {
    return attempts > 0 ? static_cast<double>(wrong_attempts) / static_cast<double>(attempts)
                        : 0.0;
}

double replay_stats::miss_rate() const noexcept {
    return completions > 0
               ? static_cast<double>(deadline_misses) / static_cast<double>(completions)
               : 0.0;
}

double replay_stats::undelivered_rate() const noexcept {
    return frames > 0
               ? static_cast<double>(frames - std::min(frames, delivered)) /
                     static_cast<double>(frames)
               : 0.0;
}

closed_loop_report closed_loop_replay(const std::vector<pipeline::stage>& stages,
                                      std::size_t num_frames, double attempt_error_rate,
                                      double resolved_deadline_us, std::size_t max_retx,
                                      const pipeline::arrival_process& arrivals, util::rng& rng,
                                      const pipeline::sim_options& options) {
    if (!(attempt_error_rate >= 0.0) || !(attempt_error_rate <= 1.0)) {
        throw std::invalid_argument("arq: attempt error rate must be in [0, 1]");
    }
    if (std::isnan(resolved_deadline_us) || resolved_deadline_us < 0.0) {
        throw std::invalid_argument("arq: resolved deadline must be non-negative");
    }

    closed_loop_report report;
    report.stats.frames = num_frames;
    report.stats.resolved_deadline_us = resolved_deadline_us;

    // Error draws live on their own derived stream so adding the error
    // model never perturbs arrival or service randomness.
    util::rng error_rng = rng.derive(error_model_domain);
    const auto feedback = [&](const pipeline::completion& c) -> bool {
        ++report.stats.completions;
        // Deadline 0 is "always late" by definition — a zero-latency
        // degenerate attempt must still count as a miss.
        const bool late =
            resolved_deadline_us == 0.0 || c.latency_us() > resolved_deadline_us;
        // A retransmission is a fresh channel use, statistically a fresh
        // draw from the measured per-attempt frame-error probability.
        const bool wrong = error_rng.bernoulli(attempt_error_rate);
        if (late) ++report.stats.deadline_misses;
        if (wrong) ++report.stats.modeled_errors;
        if (!late && !wrong) {
            ++report.stats.delivered;
            return false;
        }
        if (c.attempt >= max_retx) {
            ++report.stats.exhausted;
            return false;
        }
        ++report.stats.retransmissions;
        return true;
    };

    report.replay = pipeline::simulate(stages, num_frames, arrivals, rng, options, feedback);
    report.stats.injections = report.replay.num_jobs;
    report.stats.lost_to_drops = report.replay.jobs_dropped;
    report.stats.goodput_per_us =
        report.replay.makespan_us > 0.0
            ? static_cast<double>(report.stats.delivered) / report.replay.makespan_us
            : 0.0;
    return report;
}

}  // namespace hcq::arq
