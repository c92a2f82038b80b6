#include "pipeline/pipeline.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>

#include "metrics/digest.h"
#include "metrics/stats.h"

namespace hcq::pipeline {

stage::stage(std::string name, service_model service, std::size_t num_servers)
    : name_(std::move(name)), service_(std::move(service)), num_servers_(num_servers) {
    if (!service_) throw std::invalid_argument("stage: null service model");
    if (num_servers_ == 0) throw std::invalid_argument("stage: zero servers");
}

stage stage::constant(std::string name, double service_us) {
    if (service_us < 0.0) throw std::invalid_argument("stage::constant: negative service");
    return stage(std::move(name), [service_us](std::size_t, util::rng&) { return service_us; });
}

stage stage::lognormal(std::string name, double median_us, double sigma) {
    if (median_us <= 0.0 || sigma < 0.0) {
        throw std::invalid_argument("stage::lognormal: bad parameters");
    }
    const double mu = std::log(median_us);
    return stage(std::move(name), [mu, sigma](std::size_t, util::rng& rng) {
        return std::exp(rng.normal(mu, sigma));
    });
}

stage stage::from_trace(std::string name, std::vector<double> trace_us) {
    if (trace_us.empty()) throw std::invalid_argument("stage::from_trace: empty trace");
    for (const double t : trace_us) {
        if (t < 0.0 || !std::isfinite(t)) {
            throw std::invalid_argument("stage::from_trace: bad trace entry");
        }
    }
    return stage(std::move(name),
                 [trace = std::move(trace_us)](std::size_t job_index, util::rng&) {
                     return trace[job_index % trace.size()];
                 });
}

stage stage::with_servers(std::size_t num_servers) const {
    stage copy = *this;
    if (num_servers == 0) throw std::invalid_argument("stage::with_servers: zero servers");
    copy.num_servers_ = num_servers;
    return copy;
}

double stage::service_us(std::size_t job_index, util::rng& rng) const {
    const double s = service_(job_index, rng);
    if (s < 0.0 || !std::isfinite(s)) throw std::runtime_error("stage: bad service time");
    return s;
}

const char* to_string(backpressure policy) noexcept {
    switch (policy) {
        case backpressure::block: return "block";
        case backpressure::drop_oldest: return "drop-oldest";
        case backpressure::drop_newest: return "drop-newest";
    }
    return "?";
}

backpressure parse_backpressure(const std::string& text) {
    if (text == "block") return backpressure::block;
    if (text == "drop-oldest") return backpressure::drop_oldest;
    if (text == "drop-newest") return backpressure::drop_newest;
    throw std::invalid_argument("parse_backpressure: unknown policy '" + text +
                                "' (expected block, drop-oldest, or drop-newest)");
}

namespace {

/// Per-stage accounting, folded into the result when the run drains.
struct stage_accounting {
    double busy_us = 0.0;            ///< total service time
    double wait_us = 0.0;            ///< buffer wait of jobs that entered service
    double occupancy_area_us = 0.0;  ///< buffer residency incl. evicted jobs
    std::size_t served = 0;          ///< jobs that entered service
    std::size_t drops = 0;
    std::size_t max_queue = 0;
};

/// A FIFO over one vector.  pop_front advances a head index, and the
/// consumed prefix is erased once it is half the storage, so a warm queue
/// allocates nothing; a std::deque keeps allocating blocks as it moves.
template <typename T>
class fifo {
public:
    [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
    [[nodiscard]] std::size_t size() const noexcept { return items_.size() - head_; }
    [[nodiscard]] const T& front() const noexcept { return items_[head_]; }
    void push_back(const T& item) { items_.push_back(item); }
    void pop_front() {
        if (2 * ++head_ >= items_.size()) {
            items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

private:
    std::vector<T> items_;
    std::size_t head_ = 0;
};

constexpr double never = std::numeric_limits<double>::infinity();

/// One injection traversing the chain.
struct job {
    std::size_t frame = 0;
    std::size_t attempt = 0;
    std::size_t inject_seq = 0;  ///< injection index (the service-model job index)
    double offered_us = 0.0;     ///< arrival of attempt 0
    double injected_us = 0.0;    ///< arrival of THIS attempt at stage 0 (latency baseline)
    double enter_us = 0.0;       ///< admission into the current stage's buffer
};

/// The only scheduled event: a service completion.  Equal times run in
/// scheduling order.
struct service_end {
    double time_us = 0.0;
    std::uint64_t seq = 0;
    std::size_t stage = 0;
    std::size_t server = 0;
};

struct ends_later {
    bool operator()(const service_end& a, const service_end& b) const {
        if (a.time_us != b.time_us) return a.time_us > b.time_us;
        return a.seq > b.seq;
    }
};

/// A buffer head due to start service now; stale when `epoch` is not the
/// stage's current one.
struct due_start {
    std::size_t stage = 0;
    std::uint64_t epoch = 0;
};

class engine {
public:
    engine(const std::vector<stage>& stages, std::size_t num_jobs, const arrival_process& arrivals,
           util::rng& rng, const sim_options& options, const feedback_fn& feedback)
        : num_jobs_(num_jobs),
          arrivals_(arrivals),
          rng_(&rng),
          options_(options),
          feedback_(&feedback),
          state_(stages.size()) {
        for (std::size_t s = 0; s < stages.size(); ++s) {
            state_[s].st = &stages[s];
            state_[s].servers.resize(stages[s].servers());
        }
        if (options_.record_latencies) result_.latencies_us.reserve(num_jobs);
    }

    /// Runs every event of one instant — completions, then due starts, then
    /// the arrival — before advancing the clock to the next completion or
    /// arrival.  A head only ever becomes due at the current instant (its
    /// buffer entry, its server's release and the stage's last start are
    /// all past), so only completions need the heap.
    simulation_result run() {
        for (;;) {
            const bool arrival_next = offered_ < num_jobs_ && !offered_held_;
            if (!ends_.empty() && ends_.top().time_us <= now_) {
                const service_end ev = ends_.top();
                ends_.pop();
                state_[ev.stage].servers[ev.server].finished = true;
                flush(ev.stage);
            } else if (!due_.empty()) {
                const due_start d = due_.front();
                due_.pop_front();
                if (d.epoch == state_[d.stage].epoch) start_head(d.stage);
            } else if (arrival_next && next_arrival_us_ <= now_) {
                arrive_offered();
            } else if (arrival_next || !ends_.empty()) {
                now_ = arrival_next ? next_arrival_us_ : never;
                if (!ends_.empty()) now_ = std::min(now_, ends_.top().time_us);
            } else {
                break;
            }
        }
        assert(offered_ == num_jobs_);
        return finish();
    }

private:
    struct server {
        double free_us = 0.0;   ///< release time; `never` while a job holds it
        bool finished = false;  ///< its job's service ended, hand-off pending
    };

    struct in_service {
        job j;
        std::size_t server = 0;
    };

    struct stage_state {
        const stage* st = nullptr;
        fifo<job> waiting;            ///< admitted, not yet in service
        fifo<in_service> active;      ///< holding a server, in service-start order
        std::vector<server> servers;
        bool head_blocked = false;    ///< active front finished, downstream full (block)
        std::size_t next_server = 0;  ///< round-robin: the head's server
        double last_start = 0.0;      ///< in-order dispatch: no start before it
        std::uint64_t epoch = 0;      ///< invalidates queued due starts
        stage_accounting acct;
    };

    [[nodiscard]] bool first_buffer_blocks() const {
        return options_.policy == backpressure::block &&
               state_[0].waiting.size() >= options_.buffer_capacity;
    }

    /// The clock reached the next offered arrival.  Under block a full first
    /// buffer holds it at the source, which keeps only its arrival time and
    /// draws no further gap until it is admitted, so a backlog of offered
    /// jobs costs no memory.
    void arrive_offered() {
        if (first_buffer_blocks()) {
            offered_held_ = true;
            return;
        }
        admit_offered();
    }

    /// Offered job `offered_` enters stage 0, at its arrival time or, when
    /// held, once a first-buffer slot frees; its latency counts from its
    /// arrival.  An arrival the source fell behind on is held at once.
    void admit_offered() {
        job j;
        j.frame = offered_++;
        j.offered_us = j.injected_us = next_arrival_us_;
        if (offered_ < num_jobs_) {
            next_arrival_us_ += arrivals_.poisson
                                    ? -arrivals_.interarrival_us * std::log(1.0 - rng_->uniform())
                                    : arrivals_.interarrival_us;
        }
        inject(j);
        offered_held_ = offered_ < num_jobs_ && next_arrival_us_ < now_;
    }

    /// An offered job or a fed-back retransmission enters stage 0.  Under
    /// block a retransmission meeting a full first buffer waits in the
    /// entrance queue.
    void inject(job j) {
        j.inject_seq = result_.num_jobs++;
        if (first_buffer_blocks()) {
            entrance_.push_back(j);
            return;
        }
        arrive(0, j);
    }

    /// A job reaches stage s's buffer.  Under block the caller has checked
    /// for a free slot; under the drop policies a full buffer sheds a job.
    void arrive(std::size_t s, job j) {
        auto& st = state_[s];
        if (st.waiting.size() >= options_.buffer_capacity) {
            ++st.acct.drops;
            if (options_.policy == backpressure::drop_newest) return;
            st.acct.occupancy_area_us += now_ - st.waiting.front().enter_us;
            st.waiting.pop_front();
        }
        j.enter_us = now_;
        st.waiting.push_back(j);
        st.acct.max_queue = std::max(st.acct.max_queue, st.waiting.size());
        schedule_head(s);
    }

    /// Queues stage s's head to start now if its round-robin server is free,
    /// superseding any start queued earlier.  A head whose server is held
    /// is rescheduled when that server releases.
    void schedule_head(std::size_t s) {
        auto& st = state_[s];
        ++st.epoch;
        if (st.waiting.empty()) return;
        const server& sv = st.servers[st.next_server];
        if (sv.free_us == never) return;
        assert(std::max({st.waiting.front().enter_us, sv.free_us, st.last_start}) == now_);
        due_.push_back({s, st.epoch});
    }

    void start_head(std::size_t s) {
        auto& st = state_[s];
        const job j = st.waiting.front();
        st.waiting.pop_front();
        const std::size_t k = st.next_server;
        if (++st.next_server == st.servers.size()) st.next_server = 0;
        st.last_start = now_;
        const double service = st.st->service_us(j.inject_seq, *rng_);
        st.acct.busy_us += service;
        st.acct.wait_us += now_ - j.enter_us;
        st.acct.occupancy_area_us += now_ - j.enter_us;
        ++st.acct.served;
        st.servers[k] = {never, false};
        st.active.push_back({j, k});
        ends_.push({now_ + service, next_end_seq_++, s, k});
        admit_released_slot(s);
        schedule_head(s);
    }

    /// Under block, a slot just freed at stage s goes to the job that has
    /// waited for it longest: the upstream stage's parked hand-off, or at
    /// stage 0 the earlier of the entrance queue's front and the held
    /// offered arrival, the retransmission on a tie.
    void admit_released_slot(std::size_t s) {
        if (options_.policy != backpressure::block) return;
        if (s == 0) {
            if (!entrance_.empty() &&
                (!offered_held_ || entrance_.front().injected_us <= next_arrival_us_)) {
                const job j = entrance_.front();
                entrance_.pop_front();
                arrive(0, j);
            } else if (offered_held_) {
                admit_offered();
            }
            return;
        }
        auto& up = state_[s - 1];
        if (!up.head_blocked) return;
        up.head_blocked = false;
        flush(s - 1);
    }

    /// Hands stage s's finished jobs on in service-start order, releasing
    /// each one's server; under block a full downstream buffer parks the
    /// front job, holding its server.
    void flush(std::size_t s) {
        auto& st = state_[s];
        const bool last = s + 1 == state_.size();
        while (!st.head_blocked && !st.active.empty() &&
               st.servers[st.active.front().server].finished) {
            if (!last && options_.policy == backpressure::block &&
                state_[s + 1].waiting.size() >= options_.buffer_capacity) {
                st.head_blocked = true;
                return;
            }
            const in_service done = st.active.front();
            st.active.pop_front();
            st.servers[done.server] = {now_, false};
            schedule_head(s);
            if (last) {
                complete(done.j);
            } else {
                arrive(s + 1, done.j);
            }
        }
    }

    void complete(const job& j) {
        ++result_.jobs_completed;
        const double latency = now_ - j.injected_us;
        latency_stats_.add(latency);
        digest_.add(latency);
        if (options_.record_latencies) result_.latencies_us.push_back(latency);
        result_.makespan_us = now_;  // exits happen in time order
        if (*feedback_ &&
            (*feedback_)({j.frame, j.attempt, j.offered_us, j.injected_us, now_})) {
            job retx;
            retx.frame = j.frame;
            retx.attempt = j.attempt + 1;
            retx.offered_us = j.offered_us;
            retx.injected_us = now_;
            inject(retx);
        }
    }

    simulation_result finish() {
        simulation_result& r = result_;
        r.jobs_dropped = r.num_jobs - r.jobs_completed;
        r.drop_rate = r.num_jobs > 0 ? static_cast<double>(r.jobs_dropped) /
                                           static_cast<double>(r.num_jobs)
                                     : 0.0;
        r.throughput_per_us =
            r.makespan_us > 0.0 ? static_cast<double>(r.jobs_completed) / r.makespan_us : 0.0;
        r.mean_latency_us = latency_stats_.mean();
        if (options_.record_latencies && !r.latencies_us.empty()) {
            r.p50_latency_us = metrics::percentile(r.latencies_us, 50.0);
            r.p99_latency_us = metrics::percentile(r.latencies_us, 99.0);
        } else {
            r.p50_latency_us = digest_.p50();
            r.p99_latency_us = digest_.p99();
        }
        r.max_latency_us = latency_stats_.max();
        for (const stage_state& st : state_) {
            const stage_accounting& a = st.acct;
            const double capacity_us = r.makespan_us * static_cast<double>(st.servers.size());
            r.stage_utilization.push_back(capacity_us > 0.0 ? a.busy_us / capacity_us : 0.0);
            r.mean_queue_wait_us.push_back(
                a.served > 0 ? a.wait_us / static_cast<double>(a.served) : 0.0);
            r.mean_queue_len.push_back(
                r.makespan_us > 0.0 ? a.occupancy_area_us / r.makespan_us : 0.0);
            r.max_queue_len.push_back(a.max_queue);
            r.stage_drops.push_back(a.drops);
        }
        return std::move(r);
    }

    std::size_t num_jobs_;
    arrival_process arrivals_;
    util::rng* rng_;
    sim_options options_;
    const feedback_fn* feedback_;
    std::vector<stage_state> state_;
    fifo<job> entrance_;  ///< retransmissions awaiting a first-buffer slot (block)
    fifo<due_start> due_;
    std::priority_queue<service_end, std::vector<service_end>, ends_later> ends_;
    std::uint64_t next_end_seq_ = 0;
    std::size_t offered_ = 0;       ///< offered jobs admitted so far
    bool offered_held_ = false;     ///< next offered arrival waits for a slot (block)
    double now_ = 0.0;
    double next_arrival_us_ = 0.0;  ///< arrival time of offered job `offered_`
    simulation_result result_;
    metrics::latency_digest digest_;
    metrics::running_stats latency_stats_;
};

}  // namespace

simulation_result simulate(const std::vector<stage>& stages, std::size_t num_jobs,
                           const arrival_process& arrivals, util::rng& rng,
                           const sim_options& options, const feedback_fn& feedback) {
    if (stages.empty()) throw std::invalid_argument("simulate: no stages");
    if (num_jobs == 0) throw std::invalid_argument("simulate: no jobs");
    if (!(arrivals.interarrival_us > 0.0) || !std::isfinite(arrivals.interarrival_us)) {
        throw std::invalid_argument("simulate: bad interarrival");
    }
    if (options.buffer_capacity == 0) {
        throw std::invalid_argument(
            "simulate: buffer capacity 0 can never admit work; use a capacity >= 1 or "
            "pipeline::unbounded_capacity");
    }
    return engine(stages, num_jobs, arrivals, rng, options, feedback).run();
}

util::table summary_table(const simulation_result& result,
                          const std::vector<std::string>& stage_names) {
    const std::size_t k = result.stage_utilization.size();
    if (!stage_names.empty() && stage_names.size() != k) {
        throw std::invalid_argument("summary_table: stage_names arity mismatch");
    }
    const auto stage_label = [&](std::size_t s) {
        return stage_names.empty() ? "stage " + std::to_string(s) : stage_names[s];
    };

    util::table t({"metric", "value"});
    t.add("channel uses", result.num_jobs);
    t.add("completed", result.jobs_completed);
    t.add("dropped", result.jobs_dropped);
    t.add("drop rate", util::format_double(result.drop_rate, 5));
    t.add("makespan us", result.makespan_us);
    t.add("throughput use/ms", result.throughput_per_us * 1000.0);
    t.add("mean latency us", result.mean_latency_us);
    t.add("p50 latency us", result.p50_latency_us);
    t.add("p99 latency us", result.p99_latency_us);
    t.add("max latency us", result.max_latency_us);
    for (std::size_t s = 0; s < k; ++s) {
        t.add("utilization " + stage_label(s),
              util::format_double(result.stage_utilization[s], 3));
        t.add("queue wait us " + stage_label(s),
              util::format_double(result.mean_queue_wait_us[s], 3));
        t.add("mean queue len " + stage_label(s),
              util::format_double(result.mean_queue_len[s], 3));
        t.add("max queue len " + stage_label(s), result.max_queue_len[s]);
        t.add("drops " + stage_label(s), result.stage_drops[s]);
    }
    return t;
}

std::vector<stage> make_hybrid_stages(double classical_us, double schedule_duration_us,
                                      std::size_t reads_per_use, double programming_us,
                                      std::size_t quantum_devices) {
    if (schedule_duration_us <= 0.0 || reads_per_use == 0 || quantum_devices == 0) {
        throw std::invalid_argument("make_hybrid_stages: bad quantum stage parameters");
    }
    const double quantum_us =
        programming_us + schedule_duration_us * static_cast<double>(reads_per_use);
    std::vector<stage> stages;
    stages.push_back(stage::constant("classical", classical_us));
    stages.push_back(stage::constant("quantum", quantum_us).with_servers(quantum_devices));
    return stages;
}

}  // namespace hcq::pipeline
