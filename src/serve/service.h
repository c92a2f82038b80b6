// Request execution against the detection-path registry — the piece of the
// serving front end that actually computes, shared by the TCP server's
// worker pool and by in-process callers (tests, benches).
//
// Determinism contract (the served-vs-in-process golden): run_batch derives
// its master seed via serve::request_seed(tenant_id, request_seq, seed) and
// runs every use through link::use_kernel, the link simulator's per-use
// kernel, on the SAME stream domains (link::stream_domains) — channel use u
// from rng(master).derive(synthesis).derive(u), its solve from
// rng(master).derive(solve).derive(u) (one path, so the link layer's
// u * num_paths + p collapses to u).  A served batch is therefore
// bit-identical to a link_config{paths = {spec}, seed = request_seed(...),
// same users/mod/snr/channel} run: identical detected bits, ML costs, and
// ground-truth aggregates, pinned by tests/serve_test.cpp at 1 and 8 server
// worker threads.  Only the measured timings vary run to run.
//
// Concurrency contract: run_batch is a pure function of its request (plus a
// per-call registry lookup); the server runs many batches concurrently on
// pool workers with no shared mutable state between them.
#ifndef HCQ_SERVE_SERVICE_H
#define HCQ_SERVE_SERVICE_H

#include <cstddef>
#include <vector>

#include "qubo/model.h"
#include "serve/protocol.h"

namespace hcq::serve {

/// Everything one served batch produced.  `bits`/`ml_cost` are the wire
/// payload; the ground-truth aggregates exist so goldens can pin a served
/// batch against link::run_link_simulation without shipping tx bits.
struct batch_result {
    std::vector<qubo::bit_vector> bits;  ///< detected bits per use (natural map)
    std::vector<double> ml_cost;         ///< ||y - H x_hat||^2 per use
    /// Per-bit LLRs, use-major flat layout (llrs[u * bits_per_use + b]),
    /// from detection_path::soft_output; filled iff the request set
    /// want_soft, empty otherwise.  Deterministic like `bits`.
    std::vector<double> llrs;
    std::size_t bits_per_use = 0;

    // Detection-domain aggregates against the synthesized ground truth —
    // exactly link's path_report view of the same stream.
    std::size_t bit_errors = 0;
    std::size_t total_bits = 0;
    std::size_t exact_frames = 0;  ///< uses whose detected bits match tx exactly
    double sum_ml_cost = 0.0;

    // Measured totals across the batch (timing domain; vary run to run).
    double synth_us = 0.0;
    double qubo_us = 0.0;
    double solve_us = 0.0;
};

/// Validates and serves one request in the calling thread.  Throws
/// std::invalid_argument (self-documenting, in the registry style) on an
/// unknown/malformed path spec, modulation, or channel spec, or an invalid
/// num_users; protocol-level bounds (num_uses) were already enforced by
/// decode_request.
[[nodiscard]] batch_result run_batch(const request& req);

/// Builds the ok-response for a served batch (packs bits, copies costs and
/// timings, echoes the request identity).  Admission fields are zero; the
/// server fills them.
[[nodiscard]] response make_ok_response(const request& req, const batch_result& result);

}  // namespace hcq::serve

#endif  // HCQ_SERVE_SERVICE_H
