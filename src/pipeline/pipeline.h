// Pipelined classical-quantum computation structures (paper Figure 2).
//
// Successive wireless channel uses arrive as a stream of jobs; each job
// passes through a fixed sequence of processing stages (e.g. a classical
// greedy-search unit, then a quantum reverse-annealing unit).  While the
// quantum unit processes channel use N, the classical unit may already work
// on N+1 — exactly the overlap the figure depicts.  simulate() replays that
// tandem queue as one event loop over virtual time.  With one server per
// stage and buffers that never fill it reduces to the tandem recurrence
//     start[k][j] = max(done[k-1][j], free_k),
//     done[k][j]  = start[k][j] + service_k(j).
//
// Modelling semantics, explicitly:
//   * Buffers.  Each stage has sim_options::buffer_capacity waiting slots
//     (jobs in service not counted; unbounded_capacity never fills;
//     capacity 0 throws).  A job arriving at a full buffer meets the
//     backpressure policy: `block` keeps it where it is until a slot
//     frees — a finished job stays in its upstream server, an offered
//     arrival is held at the source, which keeps only its arrival time and
//     generates nothing further meanwhile (so an overload backlog costs no
//     memory), and a retransmission waits in an entrance queue; a freed
//     first-buffer slot goes to the earlier of the held arrival and the
//     queue's front, the retransmission on a tie.  `drop_oldest` evicts the
//     longest-waiting queued job for the newcomer; `drop_newest` discards
//     the newcomer.  Under the drop policies a retransmission meeting a
//     full buffer is dropped like any arrival.  A slot frees when its job
//     enters service.
//   * Order.  Jobs hand off between stages and exit the last stage in the
//     order they entered service (in-order delivery): a finished job waits
//     for its predecessors at the same stage.
//   * Servers.  A stage with S servers dispatches round-robin — job n of
//     the stage's served stream goes to server n mod S, the paper's §5 "K
//     annealer devices serving one stream" lever made literal — and the
//     head of the buffer waits for its designated server.  A server is held
//     until its job HANDS OFF (or exits), not merely until service ends:
//     under `block` a full downstream buffer stalls it, and a faster sibling
//     waits for in-order delivery.
//   * Equal times.  Events at one instant run in a fixed order: service
//     completions in scheduling order, with the hand-offs, exits and
//     re-injections they release; then service starts, which free buffer
//     slots; then the offered arrival.  So an arrival at the instant a slot
//     frees is admitted, while a hand-off at that instant still finds the
//     slot taken.
//   * Feedback.  When a `feedback` hook is given it sees every completed
//     traversal in exit order; returning true re-injects the frame at stage
//     0 at that same instant (the ARQ retransmission), where it competes
//     with fresh arrivals for the same buffers.
//   * Randomness.  Poisson inter-arrival gaps and lognormal service times
//     draw from the one `rng`; service times are drawn in service-start
//     order, the gap to the next arrival when an offered job enters stage
//     0 (for a held arrival, when it is admitted).  Trace-backed stages
//     serve injection j in trace[j mod size].
//   * Accounting.  `num_jobs` counts injections (offered jobs plus
//     retransmissions; a held offered job is injected when admitted, a
//     retransmission when it completes).  Latencies cover completed
//     traversals only, each measured from that traversal's injection — for
//     a held offered job, from its arrival.  `stage_utilization[k]` is
//     busy time / (makespan x servers), against the LAST departure, so
//     early stages that idle while the tail drains report lower
//     utilisation than an in-isolation measurement would.  Dropped jobs
//     count into drop_rate/stage_drops and into queue-occupancy time while
//     queued, but have no latency.
//
// The simulator reports the link-layer quantities of interest: sustained
// throughput, per-channel-use latency percentiles (the ARQ turnaround
// budget), drop rates, stage utilisation, and queue occupancy.  For
// million-job streaming runs set record_latencies = false: percentiles then
// come from a fixed-memory metrics::latency_digest (~0.4% relative error)
// instead of an O(jobs) vector.  Once its queues are warm the loop
// allocates nothing per job.  Service models may be synthetic (constant /
// lognormal) or measured traces recorded from the real solver code paths by
// the end-to-end link simulator (link/link_sim.h).
//
// Concurrency contract: simulate() is a SINGLE-THREADED event simulator
// over virtual time — stage "parallelism" is modelled in the event
// equations, not executed on threads.  There are deliberately no locks and
// no thread-safety annotations here; a mutex in this layer would signal a
// design error.  Callers may run many simulations concurrently on disjoint
// inputs (the link layer does); see docs/ARCHITECTURE.md, "The determinism
// contract as enforceable rules".
#ifndef HCQ_PIPELINE_PIPELINE_H
#define HCQ_PIPELINE_PIPELINE_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/table.h"

namespace hcq::pipeline {

/// One pipeline stage: a name, a per-job service-time model, and a server
/// count (parallel identical devices fed round-robin, default 1).
class stage {
public:
    using service_model = std::function<double(std::size_t job_index, util::rng& rng)>;

    /// Throws std::invalid_argument on a null service model or zero servers.
    stage(std::string name, service_model service, std::size_t num_servers = 1);

    /// Deterministic service time.
    [[nodiscard]] static stage constant(std::string name, double service_us);

    /// Lognormal-jittered service time: exp(N(log median, sigma)).
    [[nodiscard]] static stage lognormal(std::string name, double median_us, double sigma);

    /// Replays a measured per-job service-time trace (e.g. the wall times the
    /// end-to-end link simulator records for each stage).  Job j is served in
    /// trace[j % trace.size()] us, so a short trace cycles over a longer run.
    /// Throws std::invalid_argument on an empty trace or any negative /
    /// non-finite entry.
    [[nodiscard]] static stage from_trace(std::string name, std::vector<double> trace_us);

    /// Copy of this stage backed by `num_servers` parallel servers (e.g. the
    /// K devices of a kxra detection path).  Throws on zero.
    [[nodiscard]] stage with_servers(std::size_t num_servers) const;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::size_t servers() const noexcept { return num_servers_; }
    [[nodiscard]] double service_us(std::size_t job_index, util::rng& rng) const;

private:
    std::string name_;
    service_model service_;
    std::size_t num_servers_ = 1;
};

/// Arrival process for channel uses.
struct arrival_process {
    double interarrival_us = 10.0;  ///< mean spacing between channel uses
    bool poisson = false;           ///< exponential spacing instead of fixed
};

/// What a stage does when a job arrives at a full buffer.
enum class backpressure {
    block,        ///< stall the upstream stage until a slot frees (no drops)
    drop_oldest,  ///< evict the longest-waiting queued job for the newcomer
    drop_newest,  ///< discard the arriving job
};

/// Canonical names: "block", "drop-oldest", "drop-newest".
[[nodiscard]] const char* to_string(backpressure policy) noexcept;
/// Parses the canonical names; throws std::invalid_argument listing them.
[[nodiscard]] backpressure parse_backpressure(const std::string& text);

/// Sentinel capacity: a buffer that never fills.
inline constexpr std::size_t unbounded_capacity = static_cast<std::size_t>(-1);

/// Simulation knobs beyond the stage list and arrival process.
struct sim_options {
    /// Waiting slots in front of every stage (jobs in service not counted).
    /// unbounded_capacity disables backpressure entirely; 0 throws.
    std::size_t buffer_capacity = unbounded_capacity;
    backpressure policy = backpressure::block;
    /// Keep the per-job latencies_us vector (O(jobs) memory) and compute
    /// exact percentiles from it.  When false, percentiles come from a
    /// fixed-memory log-binned digest instead (~0.4% relative error) and
    /// latencies_us stays empty — the million-job streaming mode.
    bool record_latencies = true;
};

/// Aggregate simulation outcome.
struct simulation_result {
    std::size_t num_jobs = 0;                ///< injections (arrivals + retransmissions)
    std::size_t jobs_completed = 0;          ///< traversals that left the last stage
    std::size_t jobs_dropped = 0;            ///< injected - completed
    double drop_rate = 0.0;                  ///< dropped / injected
    double makespan_us = 0.0;                ///< last departure time
    double throughput_per_us = 0.0;          ///< completed jobs / makespan
    double mean_latency_us = 0.0;            ///< injection -> final departure
    double p50_latency_us = 0.0;
    double p99_latency_us = 0.0;
    double max_latency_us = 0.0;
    std::vector<double> stage_utilization;   ///< busy / (makespan x servers)
    std::vector<double> mean_queue_wait_us;  ///< buffer wait per completed job
    std::vector<double> mean_queue_len;      ///< time-averaged buffer occupancy
    std::vector<std::size_t> max_queue_len;  ///< peak buffer occupancy
    std::vector<std::size_t> stage_drops;    ///< jobs dropped at each buffer
    /// Per-completed-job latencies in completion order; empty when
    /// record_latencies is false.
    std::vector<double> latencies_us;
};

/// One completed traversal, as the feedback hook sees it.
struct completion {
    std::size_t frame = 0;       ///< offered-frame index
    std::size_t attempt = 0;     ///< 0 = first transmission
    double offered_us = 0.0;     ///< arrival time of attempt 0
    double injected_us = 0.0;    ///< arrival of THIS attempt at stage 0, before any blocked wait
    double done_us = 0.0;        ///< exit time from the last stage

    /// Replayed end-to-end latency of this attempt (the ARQ deadline view).
    [[nodiscard]] double latency_us() const noexcept { return done_us - injected_us; }
};

/// Feedback decision, invoked once per completed traversal in exit order:
/// return true to re-inject the frame at stage 0 (attempt + 1) at done_us.
/// The hook must eventually return false for every frame (e.g. by capping
/// attempts) or the simulation never drains.
using feedback_fn = std::function<bool(const completion&)>;

/// Runs `num_jobs` offered channel uses through the stages; with a
/// `feedback` hook, completed traversals may re-enter as retransmissions
/// (open loop when empty).  Throws std::invalid_argument on an empty stage
/// list, zero jobs, a non-positive or non-finite interarrival, or a zero
/// buffer capacity (a stage could never accept work — pass
/// unbounded_capacity for buffers that never fill).
[[nodiscard]] simulation_result simulate(const std::vector<stage>& stages,
                                         std::size_t num_jobs, const arrival_process& arrivals,
                                         util::rng& rng, const sim_options& options = {},
                                         const feedback_fn& feedback = {});

/// Renders a simulation_result as a two-column metric/value util::table
/// (throughput, drop rate, latency percentiles, then per-stage utilisation,
/// queue wait, occupancy, and drops).  `stage_names` labels the per-stage
/// rows and must either match the per-stage vector sizes or be empty (stages
/// are then numbered).  This is the one place result formatting lives —
/// examples and benches print through it instead of ad-hoc streaming.
[[nodiscard]] util::table summary_table(const simulation_result& result,
                                        const std::vector<std::string>& stage_names = {});

/// Convenience builder for the paper's two-stage hybrid: a classical
/// initialiser stage followed by a quantum annealer stage whose service time
/// is reads x schedule duration plus a per-job programming overhead.
/// `quantum_devices` replicates the annealer stage (round-robin dispatch).
[[nodiscard]] std::vector<stage> make_hybrid_stages(double classical_us,
                                                    double schedule_duration_us,
                                                    std::size_t reads_per_use,
                                                    double programming_us = 0.0,
                                                    std::size_t quantum_devices = 1);

}  // namespace hcq::pipeline

#endif  // HCQ_PIPELINE_PIPELINE_H
