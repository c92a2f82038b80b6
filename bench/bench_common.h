// Shared scaffolding for the figure-reproduction benches.
//
// Every bench accepts:
//   --scale=smoke|quick|full   sample-count preset (default quick; full
//                              approaches the paper's counts)
//   --seed=<n>                 master seed (default 7)
//   --csv                      emit CSV instead of aligned tables
//   --json                     emit a self-describing JSON envelope
//                              {git_sha, bench, config, rows} (the
//                              BENCH_*.json CI artifact format; takes
//                              precedence over --csv).  The envelope's
//                              git_sha and argv echo make baseline diffs in
//                              CI self-describing: scripts/check_bench.py
//                              reports WHICH commit and flags produced each
//                              side.
// plus bench-specific flags documented in each binary's banner.
#ifndef HCQ_BENCH_BENCH_COMMON_H
#define HCQ_BENCH_BENCH_COMMON_H

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "classical/solver.h"
#include "metrics/stats.h"
#include "qubo/model.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

// Injected by bench/CMakeLists.txt from `git rev-parse`; "unknown" when the
// source tree is not a git checkout (e.g. a release tarball).
#ifndef HCQ_GIT_SHA
#define HCQ_GIT_SHA "unknown"
#endif

namespace hcq::bench {

/// Parsed common options.
struct context {
    util::flag_set flags;
    util::bench_scale scale = util::bench_scale::quick;
    std::uint64_t seed = 7;
    bool csv = false;
    bool json = false;
    std::string bench_name;  ///< argv[0] basename, for the JSON envelope
    std::string argv_echo;   ///< argv[1..] joined, for the JSON envelope

    context(int argc, const char* const argv[]) : flags(argc, argv) {
        scale = util::parse_scale(flags);
        seed = flags.get_size("seed", 7);
        csv = flags.get_bool("csv", false);
        json = flags.get_bool("json", false);
        if (argc > 0) {
            bench_name = argv[0];
            const auto slash = bench_name.find_last_of('/');
            if (slash != std::string::npos) bench_name = bench_name.substr(slash + 1);
        }
        for (int i = 1; i < argc; ++i) {
            if (i > 1) argv_echo += ' ';
            argv_echo += argv[i];
        }
    }

    /// Scales a base count by the preset factor (>= 1).
    [[nodiscard]] std::size_t scaled(std::size_t base) const {
        const double f = util::scale_factor(scale);
        const double v = std::ceil(static_cast<double>(base) * f);
        return static_cast<std::size_t>(std::max(1.0, v));
    }

    /// Prints the bench banner (suppressed in JSON mode, where stdout must
    /// stay machine-parseable for the CI artifact).
    void banner(const std::string& title, const std::string& paper_ref) const {
        if (json) return;
        std::cout << "== " << title << " ==\n"
                  << "reproduces: " << paper_ref << "\n"
                  << "scale: " << util::to_string(scale) << "  seed: " << seed << "\n\n";
    }

    /// Emits a table in the selected format.  JSON output is wrapped in a
    /// self-describing envelope so BENCH_*.json artifacts carry the commit
    /// and configuration that produced them:
    ///   {"git_sha": "...", "bench": "...",
    ///    "config": {"argv": "...", "scale": "...", "seed": N},
    ///    "rows": [...]}
    void emit(const util::table& t) const {
        if (json) {
            std::cout << "{\n"
                      << "  \"git_sha\": " << util::json_quote(HCQ_GIT_SHA) << ",\n"
                      << "  \"bench\": " << util::json_quote(bench_name) << ",\n"
                      << "  \"config\": {\"argv\": " << util::json_quote(argv_echo)
                      << ", \"scale\": " << util::json_quote(util::to_string(scale))
                      << ", \"seed\": " << seed << "},\n"
                      << "  \"rows\":\n";
            t.print_json(std::cout);
            std::cout << "}\n";
            return;
        }
        if (csv) {
            t.print_csv(std::cout);
        } else {
            t.print(std::cout);
        }
        std::cout << "\n";
    }
};

/// A solver's answer and its warm cost, as the link pays it per use: one
/// untimed call warms the scratch, then elapsed_us is the median wall time
/// of 15 timed calls.  Every call draws from its own copy of `rng`,
/// and `rng` ends where one call leaves it, so the bits, the energy and
/// every later draw are those of a single cold solver.solve(q, rng).
inline solvers::solution warm_solve(const solvers::solver& solver, const qubo::qubo_model& q,
                                    util::rng& rng) {
    constexpr std::size_t repeats = 15;
    solvers::solve_scratch scratch;
    solvers::solution out;
    util::rng stream = rng;
    (void)solver.solve_best_into(q, stream, scratch, out.bits);
    std::vector<double> elapsed_us;
    elapsed_us.reserve(repeats);
    for (std::size_t k = 0; k < repeats; ++k) {
        stream = rng;
        const util::timer clock;
        out.energy = solver.solve_best_into(q, stream, scratch, out.bits);
        elapsed_us.push_back(clock.elapsed_us());
    }
    rng = stream;
    out.elapsed_us = metrics::median(std::move(elapsed_us));
    return out;
}

}  // namespace hcq::bench

#endif  // HCQ_BENCH_BENCH_COMMON_H
