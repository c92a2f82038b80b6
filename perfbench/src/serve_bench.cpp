// The serve_slots workload: the detector bank served over loopback TCP.
//
// An in-process serve::tcp_server (block admission policy, 256 slots) is
// driven through two client connections by the benchmark's own client code,
// which times each call into the wire codec (serve::encode_request /
// decode_response) and stamps every request with the time it was DUE, not
// the time it went out, so a stall is charged to every request it delays.
// Requests are "kbest", 8 uses each, with soft output.
//
// End-to-end run (--trace 0): 12 rounds, each of
//   1. capacity: closed loop, 16 requests outstanding per connection, against
//      a 1-worker server (uses_per_s);
//   2. slots: open loop at a fixed 2 x 1000 requests/s on a 2-worker server,
//      one request per 1 ms slot per connection with a seeded phase offset
//      (latency, printed but not gated).
// Afterwards every response is recomputed with serve::run_batch: bits,
// ml_cost and LLRs must be identical.
//
// Traced run (--trace 1): one slots phase and the check, with spans, then
// the ladder: open loop at fixed absolute rates, rising until a rung misses
// the p99 limit, loses a request, or leaves the generator behind
// (serve.sustained_rps).
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/socket.h"
#include "serve/tcp_server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace hcq;

constexpr std::uint32_t uses_per_request = 8;
constexpr const char* request_spec = "kbest";
constexpr std::size_t num_connections = 2;
constexpr std::size_t closed_window = 16;  ///< outstanding requests per connection
constexpr double slot_rate_rps = 2000.0;   ///< 2 connections x one per 1 ms slot
constexpr double ladder_rps[] = {2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000};
constexpr double ladder_p99_limit_us = 1000.0;
constexpr std::size_t setup_rounds = 7;
constexpr std::size_t warmup_requests = 32;  ///< per connection, per server

serve::request make_request(std::uint64_t seed, std::uint64_t tenant, std::uint64_t seq) {
    serve::request req;
    req.tenant_id = tenant;
    req.request_seq = seq;
    req.seed = seed;
    req.num_uses = uses_per_request;
    req.num_users = 4;
    req.mod = "qam16";
    req.spec = request_spec;
    req.want_soft = true;
    return req;
}

/// FNV-1a over everything the check compares.
std::uint64_t digest(const serve::response& r) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&](const void* data, std::size_t len) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < len; ++i) h = (h ^ p[i]) * 1099511628211ULL;
    };
    mix(&r.num_uses, sizeof r.num_uses);
    mix(&r.bits_per_use, sizeof r.bits_per_use);
    mix(r.bits.data(), r.bits.size());
    mix(r.ml_cost.data(), r.ml_cost.size() * sizeof(double));
    mix(r.llrs.data(), r.llrs.size() * sizeof(double));
    return h;
}

/// One request's life.  Times are µs since the phase's epoch.
struct record {
    std::uint64_t tenant = 0;
    std::uint64_t seq = 0;
    double due_us = 0.0;
    double sent_us = 0.0;
    double done_us = 0.0;
    double queue_wait_us = 0.0;
    double compute_us = 0.0;
    serve::status state = serve::status::error;
    bool answered = false;
    std::uint64_t digest = 0;

    [[nodiscard]] double latency_us() const { return done_us - due_us; }
    [[nodiscard]] bool ok() const { return answered && state == serve::status::ok; }
};

/// The benchmark's client: one loopback connection of one tenant.
class connection {
public:
    connection(std::uint16_t port, std::uint64_t tenant)
        : fd_(serve::connect_loopback(port)), tenant_(tenant) {
        // A lost response must fail the run, not hang it.
        timeval timeout{.tv_sec = 20, .tv_usec = 0};
        setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    }

    [[nodiscard]] std::uint64_t tenant() const noexcept { return tenant_; }
    /// First sequence number not yet used on this connection.
    std::uint64_t next_seq = 0;

    void send(const serve::request& req, layer_clock& clk, layer_total& encode) {
        std::vector<std::uint8_t> payload =
            clk.time(encode, [&] { return serve::encode_request(req); });
        const auto bytes = serve::frame(std::move(payload));
        serve::send_all(fd_.get(), bytes.data(), bytes.size());
    }

    /// The next response, or nullopt when the server closed the connection.
    std::optional<serve::response> receive(layer_clock& clk, layer_total& decode) {
        std::uint8_t prefix[4];
        if (!serve::recv_exact(fd_.get(), prefix, sizeof prefix)) return std::nullopt;
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
        serve::check_frame_length(len);
        payload_.resize(len);
        if (!serve::recv_exact(fd_.get(), payload_.data(), payload_.size())) {
            throw std::runtime_error("connection closed inside a frame");
        }
        return clk.time(decode, [&] { return serve::decode_response(payload_); });
    }

private:
    serve::unique_fd fd_;
    std::uint64_t tenant_;
    std::vector<std::uint8_t> payload_;
};

void fill(record& rec, const serve::response& resp, double done_us) {
    rec.done_us = done_us;
    rec.state = resp.state;
    rec.queue_wait_us = resp.queue_wait_us;
    rec.compute_us = resp.synth_us + resp.qubo_us + resp.solve_us;
    rec.digest = digest(resp);
    rec.answered = true;
}

/// A tcp_server plus the benchmark's connections to it.
struct served_bank {
    std::unique_ptr<serve::tcp_server> server;
    std::vector<connection> conns;
};

served_bank start_bank(std::size_t workers, std::uint64_t tenant_base, std::uint64_t seed) {
    served_bank bank;
    serve::server_config config;
    config.port = 0;
    config.num_workers = workers;
    config.admission_capacity = 256;
    config.policy = pipeline::backpressure::block;
    bank.server = std::make_unique<serve::tcp_server>(config);
    layer_clock off(false);
    layer_total unused;
    for (std::size_t c = 0; c < num_connections; ++c) {
        connection& conn = bank.conns.emplace_back(bank.server->port(), tenant_base + c);
        for (std::size_t i = 0; i < warmup_requests; ++i) {
            conn.send(make_request(seed, conn.tenant(), conn.next_seq++), off, unused);
        }
        for (std::size_t i = 0; i < warmup_requests; ++i) {
            const auto resp = conn.receive(off, unused);
            if (!resp || resp->state != serve::status::ok) {
                throw std::runtime_error("serve warm-up request failed");
            }
        }
    }
    return bank;
}

struct phase {
    std::vector<std::vector<record>> records;  ///< per connection
    layer_clock clk{false};

    /// Every record, in due-time order.
    [[nodiscard]] std::vector<const record*> all() const {
        std::vector<const record*> out;
        for (const auto& per_conn : records) {
            for (const auto& r : per_conn) out.push_back(&r);
        }
        std::stable_sort(out.begin(), out.end(), [](const record* a, const record* b) {
            return a->due_us < b->due_us;
        });
        return out;
    }
};

double us_since(clock::time_point epoch) {
    return std::chrono::duration<double, std::micro>(clock::now() - epoch).count();
}

/// Open loop: each connection sends one request per period, starting at a
/// seeded phase offset, whatever the server's progress.  Latency runs from
/// the due time.
phase run_open(served_bank& bank, double rate_rps, double duration_s, std::uint64_t seed,
               std::uint64_t phase_id, bool traced) {
    const std::size_t n_conn = bank.conns.size();
    const double period_us = 1e6 * static_cast<double>(n_conn) / rate_rps;
    const double duration_us = 1e6 * duration_s;
    phase ph;
    ph.clk = layer_clock(traced);
    ph.records.resize(n_conn);
    struct due {
        double t_us;
        std::size_t conn;
        std::size_t index;
    };
    std::vector<due> schedule;
    const util::rng phase_rng = util::rng(seed).derive(phase_id);
    for (std::size_t c = 0; c < n_conn; ++c) {
        const double offset_us = phase_rng.derive(c).uniform() * period_us;
        for (std::size_t k = 0;; ++k) {
            const double t = offset_us + static_cast<double>(k) * period_us;
            if (t >= duration_us) break;
            record rec;
            rec.tenant = bank.conns[c].tenant();
            rec.seq = bank.conns[c].next_seq + k;
            rec.due_us = t;
            ph.records[c].push_back(rec);
            schedule.push_back({t, c, k});
        }
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const due& a, const due& b) { return a.t_us < b.t_us; });

    const clock::time_point epoch = clock::now() + std::chrono::milliseconds(2);
    std::vector<layer_clock> receiver_clk(n_conn, layer_clock(traced));
    std::vector<std::exception_ptr> errors(n_conn);
    std::vector<std::thread> receivers;
    for (std::size_t c = 0; c < n_conn; ++c) {
        receivers.emplace_back([&, c] {
            try {
                connection& conn = bank.conns[c];
                layer_total& decode = receiver_clk[c].slot("serve.decode_response");
                const std::uint64_t base = conn.next_seq;
                for (std::size_t got = 0; got < ph.records[c].size(); ++got) {
                    const auto resp = conn.receive(receiver_clk[c], decode);
                    if (!resp) break;
                    const double now_us = us_since(epoch);
                    const std::uint64_t index = resp->request_seq - base;
                    if (index >= ph.records[c].size()) {
                        throw std::runtime_error("response for an unknown request");
                    }
                    fill(ph.records[c][index], *resp, now_us);
                }
            } catch (...) {
                errors[c] = std::current_exception();
            }
        });
    }
    std::exception_ptr send_error;
    try {
        layer_total& encode = ph.clk.slot("serve.encode_request");
        for (const due& d : schedule) {
            std::this_thread::sleep_until(
                epoch + std::chrono::nanoseconds(static_cast<std::int64_t>(d.t_us * 1e3)));
            record& rec = ph.records[d.conn][d.index];
            rec.sent_us = us_since(epoch);
            bank.conns[d.conn].send(make_request(seed, rec.tenant, rec.seq), ph.clk, encode);
        }
    } catch (...) {
        send_error = std::current_exception();
    }
    for (auto& t : receivers) t.join();
    for (std::size_t c = 0; c < n_conn; ++c) {
        bank.conns[c].next_seq += ph.records[c].size();
        ph.clk.merge(receiver_clk[c]);
    }
    if (send_error) std::rethrow_exception(send_error);
    for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
    return ph;
}

/// Closed loop: each connection keeps `closed_window` requests outstanding
/// for `duration_s`, then drains.
phase run_closed(served_bank& bank, double duration_s, std::uint64_t seed) {
    const std::size_t n_conn = bank.conns.size();
    phase ph;
    ph.records.resize(n_conn);
    const clock::time_point epoch = clock::now();
    std::vector<std::exception_ptr> errors(n_conn);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n_conn; ++c) {
        threads.emplace_back([&, c] {
            try {
                layer_clock off(false);
                layer_total unused;
                connection& conn = bank.conns[c];
                std::vector<record>& recs = ph.records[c];
                const std::uint64_t base = conn.next_seq;
                std::size_t outstanding = 0;
                const auto send_one = [&] {
                    record rec;
                    rec.tenant = conn.tenant();
                    rec.seq = conn.next_seq++;
                    rec.due_us = rec.sent_us = us_since(epoch);
                    recs.push_back(rec);
                    conn.send(make_request(seed, rec.tenant, rec.seq), off, unused);
                    ++outstanding;
                };
                for (std::size_t i = 0; i < closed_window; ++i) send_one();
                while (outstanding > 0) {
                    const auto resp = conn.receive(off, unused);
                    if (!resp) throw std::runtime_error("server closed a connection");
                    --outstanding;
                    const std::uint64_t index = resp->request_seq - base;
                    if (index >= recs.size()) throw std::runtime_error("unknown response");
                    fill(recs[index], *resp, us_since(epoch));
                    if (us_since(epoch) < duration_s * 1e6) send_one();
                }
            } catch (...) {
                errors[c] = std::current_exception();
            }
        });
    }
    for (auto& t : threads) t.join();
    for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
    return ph;
}

/// Served channel uses per second in each 50 ms window of a closed-loop
/// phase's first `duration_s` (responses counted by arrival).
std::vector<double> window_rates(const phase& ph, double duration_s) {
    std::vector<double> done;
    for (const record* r : ph.all()) {
        if (r->ok()) done.push_back(r->done_us);
    }
    std::sort(done.begin(), done.end());
    constexpr double window_us = 5e4;
    std::vector<double> rates;
    for (double t = 0.0; t + window_us <= duration_s * 1e6; t += window_us) {
        const auto n = std::lower_bound(done.begin(), done.end(), t + window_us) -
                       std::lower_bound(done.begin(), done.end(), t);
        rates.push_back(static_cast<double>(n) * uses_per_request / (window_us / 1e6));
    }
    return rates;
}

struct latency_summary {
    std::vector<double> latency_us;
    std::vector<double> late_us;  ///< sent - due
    std::vector<double> queue_wait_us;
    std::vector<double> overhead_us;
    double compute_us_sum = 0.0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
};

latency_summary summarize(const phase& ph) {
    latency_summary s;
    for (const record* r : ph.all()) {
        s.late_us.push_back(r->sent_us - r->due_us);
        if (!r->ok()) {
            ++s.failed;
            continue;
        }
        ++s.ok;
        s.latency_us.push_back(r->latency_us());
        s.queue_wait_us.push_back(r->queue_wait_us);
        s.overhead_us.push_back(r->latency_us() - r->queue_wait_us - r->compute_us);
        s.compute_us_sum += r->compute_us;
    }
    return s;
}

/// Recomputes every ok response in-process (serve::run_batch) on four
/// threads and counts mismatches.  Unanswered or rejected requests count as
/// failures too.
void check_responses(const std::vector<const record*>& records, std::uint64_t seed,
                     bool inject_mismatch, layer_clock& clk, outcome& out) {
    std::vector<const record*> ok;
    for (const record* r : records) {
        out.check(r->ok());
        if (r->ok()) ok.push_back(r);
    }
    constexpr std::size_t threads = 4;
    std::vector<std::size_t> mismatches(threads, 0);
    std::vector<layer_clock> clks(threads, layer_clock(clk.enabled()));
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            try {
                layer_total& run = clks[t].slot("serve.run_batch");
                layer_total& enc_req = clks[t].slot("serve.encode_request");
                layer_total& dec_req = clks[t].slot("serve.decode_request");
                layer_total& enc_resp = clks[t].slot("serve.encode_response");
                layer_total& dec_resp = clks[t].slot("serve.decode_response");
                for (std::size_t i = t; i < ok.size(); i += threads) {
                    const record& r = *ok[i];
                    serve::request req = make_request(seed, r.tenant, r.seq);
                    if (clks[t].enabled()) {
                        // The server-side halves of the wire codec, for the
                        // per-request codec cost.
                        const auto bytes = clks[t].time(enc_req, [&] {
                            return serve::encode_request(req);
                        });
                        req = clks[t].time(dec_req, [&] { return serve::decode_request(bytes); });
                    }
                    const serve::batch_result batch =
                        clks[t].time(run, [&] { return serve::run_batch(req); });
                    serve::response resp = serve::make_ok_response(req, batch);
                    if (clks[t].enabled()) {
                        const auto bytes =
                            clks[t].time(enc_resp, [&] { return serve::encode_response(resp); });
                        resp = clks[t].time(dec_resp, [&] { return serve::decode_response(bytes); });
                    }
                    std::uint64_t expected = digest(resp);
                    if (inject_mismatch && i == 0) expected ^= 1;
                    if (expected != r.digest) ++mismatches[t];
                }
            } catch (...) {
                errors[t] = std::current_exception();
            }
        });
    }
    for (auto& th : pool) th.join();
    for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
    std::size_t bad = 0;
    for (std::size_t t = 0; t < threads; ++t) {
        bad += mismatches[t];
        clk.merge(clks[t]);
    }
    out.attempted += ok.size();
    out.failed += bad;
}

struct durations {
    std::size_t rounds;  ///< end-to-end run: rounds of capacity and slot phases
    double capacity_s;   ///< per server, per round
    double slots_s;      ///< per round (the traced run has one)
    double rung_s;
};

outcome serve_end_to_end(const options& opt, const durations& d) {
    outcome out;
    std::vector<double> setup_s;
    served_bank one;
    served_bank two;
    for (std::size_t k = 0; k < setup_rounds; ++k) {
        one = served_bank{};
        two = served_bank{};
        const double speed = host_speed();
        const clock::time_point t0 = clock::now();
        one = start_bank(1, 1, opt.seed);
        two = start_bank(2, 1 + num_connections, opt.seed);
        setup_s.push_back(speed * seconds_since(t0));
    }

    // Rounds of a capacity phase (1 worker) and a slot phase (2 workers), so
    // that both sample the whole run.  Capacity rates are corrected by the
    // host speed measured before each round, while the servers idle.
    std::vector<double> rates;
    std::vector<double> latency_us;
    std::vector<double> late_us;
    std::vector<phase> capacity;
    std::vector<phase> slots;
    std::vector<double> speeds;
    for (std::size_t r = 0; r < d.rounds; ++r) {
        const double speed = speeds.emplace_back(host_speed());
        const phase& cap = capacity.emplace_back(run_closed(one, d.capacity_s, opt.seed));
        for (const double rate : window_rates(cap, d.capacity_s)) rates.push_back(rate / speed);
        const phase& slot = slots.emplace_back(
            run_open(two, slot_rate_rps, d.slots_s, opt.seed, r, false));
        const latency_summary s = summarize(slot);
        latency_us.insert(latency_us.end(), s.latency_us.begin(), s.latency_us.end());
        late_us.insert(late_us.end(), s.late_us.begin(), s.late_us.end());
    }

    std::vector<const record*> checked;
    for (const auto* phases : {&capacity, &slots}) {
        for (const phase& ph : *phases) {
            for (const record* r : ph.all()) checked.push_back(r);
        }
    }
    layer_clock off(false);
    check_responses(checked, opt.seed, opt.inject_mismatch, off, out);

    const double q = quiet_quantile;
    out.add("uses_per_s", percentile(rates, 1.0 - q), "uses/s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("uses_per_s.median_window", median(rates), "uses/s");
    out.note("host_speed.median", median(speeds), "ratio");
    out.note("slot_rate", slot_rate_rps, "req/s");
    out.note("latency_samples", static_cast<double>(latency_us.size()), "samples");
    out.note("lat_p50_us", median(latency_us), "us");
    out.note("lat_p99_us", percentile(latency_us, 0.99), "us");
    out.note("gen_late_us.p99", percentile(late_us, 0.99), "us");
    return out;
}

/// The highest rate of the fixed ladder whose rung met the p99 limit with
/// every request answered ok and the generator on schedule.
double run_ladder(served_bank& bank, double rung_s, std::uint64_t seed, outcome& out) {
    double sustained = 0.0;
    std::uint64_t phase_id = 1;
    for (const double rate : ladder_rps) {
        const phase rung = run_open(bank, rate, rung_s, seed, phase_id++, false);
        const latency_summary s = summarize(rung);
        layer_clock off(false);
        check_responses(rung.all(), seed, false, off, out);
        const bool pass = s.failed == 0 && percentile(s.latency_us, 0.99) <= ladder_p99_limit_us &&
                          percentile(s.late_us, 0.99) <= ladder_p99_limit_us;
        if (!pass) break;
        sustained = rate;
    }
    return sustained;
}

outcome serve_per_layer(const options& opt, const durations& d) {
    outcome out;
    served_bank two = start_bank(2, 1 + num_connections, opt.seed);
    const serve::server_stats before = two.server->stats();
    phase slots = run_open(two, slot_rate_rps, d.slots_s, opt.seed, 0, true);
    const serve::server_stats after = two.server->stats();
    layer_clock clk(true);
    check_responses(slots.all(), opt.seed, opt.inject_mismatch, clk, out);
    clk.merge(slots.clk);
    const double sustained = run_ladder(two, d.rung_s, opt.seed, out);

    const auto mean_us = [&](const std::string& layer) {
        const auto& t = clk.totals();
        const auto it = t.find(layer);
        return it == t.end() ? 0.0 : it->second.mean_us();
    };
    const latency_summary s = summarize(slots);
    const double requests = static_cast<double>(after.requests_admitted - before.requests_admitted);
    const auto share = [&](std::uint64_t serve::server_stats::* counter) {
        return requests == 0 ? 0.0 : static_cast<double>(after.*counter - before.*counter) / requests;
    };
    out.add("serve.encode_us", mean_us("serve.encode_request") + mean_us("serve.encode_response"),
            "us");
    out.add("serve.decode_us", mean_us("serve.decode_request") + mean_us("serve.decode_response"),
            "us");
    out.add("serve.run_batch_us", mean_us("serve.run_batch"), "us");
    out.add("serve.queue_wait_us.p50", median(s.queue_wait_us), "us");
    out.add("serve.queue_wait_us.p99", percentile(s.queue_wait_us, 0.99), "us");
    out.add("serve.server_compute_us", s.ok == 0 ? 0.0 : s.compute_us_sum / double(s.ok), "us");
    out.add("serve.overhead_us.p50", median(s.overhead_us), "us");
    out.add("serve.busy_frac", share(&serve::server_stats::rejected_busy), "ratio");
    out.add("serve.deadline_frac", share(&serve::server_stats::rejected_deadline), "ratio");
    out.add("serve.gen_late_us.p99", percentile(s.late_us, 0.99), "us");
    out.add("serve.lat_p50_us", median(s.latency_us), "us");
    out.add("serve.lat_p99_us", percentile(s.latency_us, 0.99), "us");
    out.add("serve.sustained_rps", sustained, "req/s");
    for (const auto& [layer, lt] : clk.totals()) {
        out.note(layer + ".mean_us", lt.mean_us(), "us");
    }
    out.note("latency_samples", static_cast<double>(s.latency_us.size()), "samples");
    out.note("ladder_p99_limit_us", ladder_p99_limit_us, "us");
    return out;
}

}  // namespace

outcome run_serve(const options& opt) {
    const double s = opt.seconds;
    constexpr std::size_t rounds = 12;
    durations d{.rounds = rounds, .capacity_s = 0.3 * s / rounds, .slots_s = 0.5 * s / rounds,
                .rung_s = 0.25};
    if (opt.trace) d.slots_s = 0.4 * s;
    if (opt.tiny) d = durations{.rounds = 2, .capacity_s = 0.1, .slots_s = 0.1, .rung_s = 0.05};
    return opt.trace ? serve_per_layer(opt, d) : serve_end_to_end(opt, d);
}

}  // namespace perfbench
