// Client side of the serving front end: a blocking request/response (and
// pipelining-capable) connection, plus the load generator that drives a
// server with open-loop Poisson or closed-loop traffic over real sockets
// and reports goodput, reject rate, and tail latency.
//
// Determinism: the load generator derives every stochastic choice (Poisson
// inter-arrival gaps) from loadgen_config::seed through util::rng streams,
// and stamps requests with tenant_id = tenant_base + connection index and a
// per-connection request_seq counter — so any served batch can be replayed
// offline through link::run_link_simulation at
// serve::request_seed(tenant_id, request_seq, seed).
#ifndef HCQ_SERVE_CLIENT_H
#define HCQ_SERVE_CLIENT_H

#include <cstdint>
#include <optional>
#include <string>

#include "metrics/digest.h"
#include "serve/protocol.h"
#include "serve/socket.h"

namespace hcq::serve {

/// One blocking loopback connection to a detector-bank server.
class client {
public:
    /// Connects to 127.0.0.1:`port`; throws std::runtime_error on refusal.
    explicit client(std::uint16_t port);

    /// Strict request/response: send one request, block for its response.
    /// Throws on a connection failure or an undecodable response.
    [[nodiscard]] response call(const request& req);

    /// Pipelined send: writes the framed request without waiting.
    // hcq-lint: allow(raw-socket) member function named `send`, not the syscall
    void send(const request& req);

    /// Sends raw pre-framed (or deliberately malformed) bytes — the tests'
    /// hook for probing the server's decode hardening.
    void send_raw(const void* data, std::size_t len);

    /// Blocks for the next response frame; nullopt on a clean server close
    /// between frames.  Throws on an error, a mid-frame close, or an
    /// undecodable payload.
    [[nodiscard]] std::optional<response> receive();

private:
    unique_fd fd_;
};

/// How run_loadgen drives the server.
enum class loadgen_mode {
    closed_loop,  ///< each connection: send, wait, repeat (window of 1)
    open_loop,    ///< Poisson arrivals, pipelined regardless of completions
};

struct loadgen_config {
    std::uint16_t port = 0;
    loadgen_mode mode = loadgen_mode::closed_loop;
    std::size_t num_connections = 4;
    std::size_t total_requests = 64;  ///< closed loop: total across connections
    double offered_rps = 100.0;       ///< open loop: aggregate arrival rate
    double duration_s = 1.0;          ///< open loop: schedule horizon
    std::uint64_t tenant_base = 1;    ///< connection c gets tenant_base + c
    std::uint64_t seed = 1;           ///< arrival-process randomness
    request request_template;         ///< spec/mod/batch settings for every request
};

/// What the run produced.  Counts partition `sent`; latency digests are in
/// microseconds and aggregated across connections via merge().
struct loadgen_report {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t busy = 0;
    std::uint64_t deadline = 0;
    std::uint64_t bad_request = 0;
    std::uint64_t internal_error = 0;
    std::uint64_t uses_served = 0;  ///< channel uses across ok responses
    double elapsed_s = 0.0;
    metrics::latency_digest latency;     ///< end-to-end per request, us
    metrics::latency_digest queue_wait;  ///< server-reported admission wait, us

    /// (busy + deadline) / sent — the shed fraction.
    [[nodiscard]] double reject_fraction() const noexcept;
    /// Served channel uses per second of wall clock.
    [[nodiscard]] double goodput_uses_per_s() const noexcept;
};

/// Runs the configured traffic against a live server and blocks until every
/// sent request has been answered.  Throws std::invalid_argument on a
/// nonsensical config (no connections, no work, non-positive rate).
[[nodiscard]] loadgen_report run_loadgen(const loadgen_config& config);

/// One-line human summary ("sent=... ok=... p99=...us ...") for examples.
[[nodiscard]] std::string summarize(const loadgen_report& report);

}  // namespace hcq::serve

#endif  // HCQ_SERVE_CLIENT_H
