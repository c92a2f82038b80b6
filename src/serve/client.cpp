#include "serve/client.h"

#include <cmath>
#include <exception>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/sync.h"
#include "util/timer.h"

namespace hcq::serve {

client::client(std::uint16_t port) : fd_(connect_loopback(port)) {}

response client::call(const request& req) {
    // hcq-lint: allow(raw-socket) our own member `send`, not the syscall
    send(req);
    auto resp = receive();
    if (!resp) {
        throw std::runtime_error("serve: server closed the connection before responding");
    }
    return *std::move(resp);
}

void client::send(const request& req) {
    const auto bytes = frame(encode_request(req));
    send_all(fd_.get(), bytes.data(), bytes.size());
}

void client::send_raw(const void* data, std::size_t len) { send_all(fd_.get(), data, len); }

std::optional<response> client::receive() {
    std::uint8_t prefix[4];
    if (!recv_exact(fd_.get(), prefix, sizeof(prefix))) return std::nullopt;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
    check_frame_length(len);
    std::vector<std::uint8_t> payload(len);
    if (!recv_exact(fd_.get(), payload.data(), payload.size())) {
        throw std::runtime_error("serve: connection closed between length prefix and payload");
    }
    return decode_response(payload);
}

double loadgen_report::reject_fraction() const noexcept {
    return sent == 0 ? 0.0
                     : static_cast<double>(busy + deadline) / static_cast<double>(sent);
}

double loadgen_report::goodput_uses_per_s() const noexcept {
    return elapsed_s <= 0.0 ? 0.0 : static_cast<double>(uses_served) / elapsed_s;
}

namespace {

/// Per-connection tallies, merged into the report after the joins.
struct connection_tally {
    loadgen_report local;  ///< only the count/digest fields are used

    void record(const response& resp, double latency_us) {
        switch (resp.state) {
            case status::ok:
                ++local.ok;
                local.uses_served += resp.num_uses;
                break;
            case status::busy: ++local.busy; break;
            case status::deadline: ++local.deadline; break;
            case status::bad_request: ++local.bad_request; break;
            case status::error: ++local.internal_error; break;
        }
        local.latency.add(latency_us);
        local.queue_wait.add(resp.queue_wait_us < 0.0 ? 0.0 : resp.queue_wait_us);
    }
};

void merge_into(loadgen_report& report, const connection_tally& tally) {
    report.ok += tally.local.ok;
    report.busy += tally.local.busy;
    report.deadline += tally.local.deadline;
    report.bad_request += tally.local.bad_request;
    report.internal_error += tally.local.internal_error;
    report.uses_served += tally.local.uses_served;
    report.latency.merge(tally.local.latency);
    report.queue_wait.merge(tally.local.queue_wait);
}

request stamped(const loadgen_config& config, std::size_t connection, std::uint64_t seq) {
    request req = config.request_template;
    req.tenant_id = config.tenant_base + connection;
    req.request_seq = seq;
    return req;
}

/// Closed loop: window of one per connection — send, block for the
/// response, repeat.  Throughput is whatever the server sustains.
void run_closed_connection(const loadgen_config& config, std::size_t connection,
                           std::size_t num_requests, connection_tally& tally) {
    client cl(config.port);
    for (std::uint64_t seq = 0; seq < num_requests; ++seq) {
        const request req = stamped(config, connection, seq);
        const util::timer clock;
        const response resp = cl.call(req);
        tally.record(resp, clock.elapsed_us());
        ++tally.local.sent;
    }
}

/// Open loop: this connection's share of the Poisson process, sent on
/// schedule regardless of outstanding responses; a paired receiver thread
/// drains responses (possibly reordered by the server's workers) and matches
/// them to send timestamps by request_seq.
void run_open_connection(const loadgen_config& config, std::size_t connection,
                         connection_tally& tally) {
    const double rate_per_s = config.offered_rps / static_cast<double>(config.num_connections);
    util::rng arrivals_rng = util::rng(config.seed).derive(connection);
    std::vector<double> arrivals_us;
    double t_s = 0.0;
    for (;;) {
        // Exponential inter-arrival gap; 1 - uniform() keeps log(·) finite.
        t_s += -std::log(1.0 - arrivals_rng.uniform()) / rate_per_s;
        if (t_s >= config.duration_s) break;
        arrivals_us.push_back(t_s * 1e6);
    }
    if (arrivals_us.empty()) return;

    client cl(config.port);
    util::mutex mutex;
    std::map<std::uint64_t, double> send_times_us;  // seq -> send timestamp
    const util::timer clock;

    std::exception_ptr receiver_error;
    std::thread receiver([&] {
        try {
            for (std::size_t received = 0; received < arrivals_us.size(); ++received) {
                auto resp = cl.receive();
                if (!resp) break;  // server went away; sender will notice too
                const double now_us = clock.elapsed_us();
                double sent_at_us = now_us;
                {
                    const util::mutex_lock lock(mutex);
                    const auto it = send_times_us.find(resp->request_seq);
                    if (it != send_times_us.end()) {
                        sent_at_us = it->second;
                        send_times_us.erase(it);
                    }
                }
                tally.record(*resp, now_us - sent_at_us);
            }
        } catch (...) {
            receiver_error = std::current_exception();
        }
    });

    try {
        for (std::uint64_t seq = 0; seq < arrivals_us.size(); ++seq) {
            util::sleep_us(arrivals_us[seq] - clock.elapsed_us());
            const request req = stamped(config, connection, seq);
            {
                const util::mutex_lock lock(mutex);
                // Stamped before the (possibly blocking) send so time spent
                // stalled on TCP backpressure counts as latency.
                send_times_us[seq] = clock.elapsed_us();
            }
            cl.send(req);
            ++tally.local.sent;
        }
    } catch (...) {
        receiver.join();
        throw;
    }
    receiver.join();
    if (receiver_error) std::rethrow_exception(receiver_error);
}

}  // namespace

loadgen_report run_loadgen(const loadgen_config& config) {
    if (config.num_connections == 0) {
        throw std::invalid_argument("serve: loadgen needs at least one connection");
    }
    if (config.mode == loadgen_mode::closed_loop && config.total_requests == 0) {
        throw std::invalid_argument("serve: closed-loop loadgen needs total_requests >= 1");
    }
    if (config.mode == loadgen_mode::open_loop &&
        (!(config.offered_rps > 0.0) || !(config.duration_s > 0.0))) {
        throw std::invalid_argument(
            "serve: open-loop loadgen needs offered_rps > 0 and duration_s > 0");
    }

    std::vector<connection_tally> tallies(config.num_connections);
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(config.num_connections);
    const util::timer run_clock;
    for (std::size_t c = 0; c < config.num_connections; ++c) {
        threads.emplace_back([&, c] {
            try {
                if (config.mode == loadgen_mode::closed_loop) {
                    const std::size_t share =
                        config.total_requests / config.num_connections +
                        (c < config.total_requests % config.num_connections ? 1 : 0);
                    run_closed_connection(config, c, share, tallies[c]);
                } else {
                    run_open_connection(config, c, tallies[c]);
                }
            } catch (...) {
                errors[c] = std::current_exception();
            }
        });
    }
    for (auto& t : threads) t.join();
    loadgen_report report;
    report.elapsed_s = run_clock.elapsed_s();
    for (const auto& err : errors) {
        if (err) std::rethrow_exception(err);
    }
    for (const auto& tally : tallies) {
        report.sent += tally.local.sent;
        merge_into(report, tally);
    }
    return report;
}

std::string summarize(const loadgen_report& report) {
    std::ostringstream out;
    out << "sent=" << report.sent << " ok=" << report.ok << " busy=" << report.busy
        << " deadline=" << report.deadline << " bad=" << report.bad_request
        << " error=" << report.internal_error << " uses=" << report.uses_served
        << " elapsed_s=" << report.elapsed_s << " goodput_uses_per_s="
        << report.goodput_uses_per_s() << " reject_frac=" << report.reject_fraction()
        << " latency_us{p50=" << report.latency.p50() << " p99=" << report.latency.p99()
        << " max=" << report.latency.max() << "}"
        << " queue_wait_us{p50=" << report.queue_wait.p50()
        << " p99=" << report.queue_wait.p99() << "}";
    return out.str();
}

}  // namespace hcq::serve
