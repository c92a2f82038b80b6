#include "serve/service.h"

#include <stdexcept>

#include "link/use_kernel.h"
#include "metrics/ber.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hcq::serve {

batch_result run_batch(const request& req) {
    if (req.num_uses == 0 || req.num_uses > max_batch_uses) {
        throw std::invalid_argument("serve: num_uses " + std::to_string(req.num_uses) +
                                    " outside 1.." + std::to_string(max_batch_uses));
    }
    if (req.num_users == 0 || req.num_users > 64) {
        throw std::invalid_argument("serve: num_users " + std::to_string(req.num_users) +
                                    " outside 1..64");
    }
    if (req.spec.empty()) {
        throw std::invalid_argument("serve: empty detection-path spec");
    }

    const auto path = paths::registry::make(req.spec);
    const wireless::modulation mod = wireless::parse_modulation(req.mod);
    if (req.want_soft) {
        const std::size_t soft_bytes = static_cast<std::size_t>(req.num_uses) * req.num_users *
                                       wireless::bits_per_symbol(mod) * sizeof(double);
        if (soft_bytes > max_soft_payload_bytes) {
            throw std::invalid_argument(
                "serve: soft batch of " + std::to_string(soft_bytes) +
                " LLR bytes exceeds the " + std::to_string(max_soft_payload_bytes) +
                "-byte soft-payload cap (shrink num_uses or drop want_soft)");
        }
    }
    // Channel resolution as in link::run_link_simulation: the request's
    // spec, else the i.i.d. kind of the setting (random-phase when
    // noiseless, Rayleigh otherwise).
    const std::uint64_t master = request_seed(req.tenant_id, req.request_seq, req.seed);
    const link::use_kernel kernel(
        wireless::channel_spec::parse(
            !req.channel.empty()
                ? req.channel
                : wireless::to_string(req.noiseless
                                          ? wireless::channel_model::unit_gain_random_phase
                                          : wireless::channel_model::rayleigh)),
        mod, req.num_users, req.noiseless, req.snr_db, master);

    const util::rng synth_base = util::rng(master).derive(link::stream_domains::synthesis);
    const util::rng solve_base = util::rng(master).derive(link::stream_domains::solve);
    const bool needs_qubo = path->needs_qubo();

    batch_result result;
    result.bits.resize(req.num_uses);
    result.ml_cost.resize(req.num_uses);
    metrics::ber_counter ber;

    // Serial over the batch: the server's parallelism is ACROSS requests
    // (the worker pool serves many sessions at once), which keeps each
    // batch's derived-stream consumption trivially schedule-independent.
    // One warm workspace serves the whole batch — each pool worker runs its
    // own run_batch, so the arena is never shared.
    paths::workspace ws;
    wireless::mimo_instance instance;
    detect::ml_qubo mq;
    paths::path_result cell;
    for (std::uint32_t u = 0; u < req.num_uses; ++u) {
        util::rng synth_rng = synth_base.derive(u);
        result.synth_us += kernel.synthesize(synth_rng, static_cast<double>(u), {}, instance);
        if (needs_qubo) result.qubo_us += link::use_kernel::reduce(instance, ws, mq);

        // One path per request, so the link layer's solve-stream index
        // u * num_paths + p is just u.  Soft output is the explicit opt-in
        // second call of the path API; hard-decision requests pay nothing.
        util::rng solve_rng = solve_base.derive(u);
        const util::timer solve_clock;
        link::use_kernel::detect(*path, instance, needs_qubo ? &mq : nullptr, solve_rng, ws,
                                 req.want_soft, cell);
        result.solve_us += solve_clock.elapsed_us();
        if (req.want_soft) result.llrs.insert(result.llrs.end(), cell.llrs.begin(), cell.llrs.end());

        ber.add_frame(instance.tx_bits, cell.bits);
        if (cell.bits == instance.tx_bits) ++result.exact_frames;
        result.sum_ml_cost += cell.ml_cost;
        result.ml_cost[u] = cell.ml_cost;
        result.bits[u] = cell.bits;  // copy: `cell` stays warm for the next use
    }

    result.bits_per_use = kernel.bits_per_use();
    result.bit_errors = ber.errors();
    result.total_bits = ber.total_bits();
    return result;
}

response make_ok_response(const request& req, const batch_result& result) {
    response resp;
    resp.state = status::ok;
    resp.tenant_id = req.tenant_id;
    resp.request_seq = req.request_seq;
    resp.num_uses = static_cast<std::uint32_t>(result.bits.size());
    resp.bits_per_use = static_cast<std::uint32_t>(result.bits_per_use);
    for (std::size_t u = 0; u < result.bits.size(); ++u) {
        pack_bits(resp.bits, u * result.bits_per_use, result.bits[u]);
    }
    // A batch whose every bit is zero packs to an empty-looking buffer;
    // size it explicitly so the wire length always matches the header.
    resp.bits.resize((result.bits.size() * result.bits_per_use + 7) / 8, 0);
    resp.ml_cost = result.ml_cost;
    resp.llrs = result.llrs;
    resp.synth_us = result.synth_us;
    resp.qubo_us = result.qubo_us;
    resp.solve_us = result.solve_us;
    return resp;
}

}  // namespace hcq::serve
