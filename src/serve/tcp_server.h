// Async TCP front end over the detection-path registry: one IO thread
// multiplexes every client session through a serve::poller (epoll), while
// num_workers worker threads of the server's own execute batches against
// the device bank.  The two sides meet in one mutex-guarded request queue
// (pending_, admitted requests in) and a completion queue (framed responses
// out); each worker pops a request, serves it and queues exactly one
// response.
//
// Admission control reuses the pipeline layer's backpressure vocabulary
// (pipeline::backpressure) with server semantics:
//
//   block        When the admission queue is full the IO thread stops
//                reading client sockets entirely — bytes pile up in the
//                kernel buffers, the TCP window closes, and senders stall.
//                Nothing is rejected; latency absorbs the overload.
//   drop_newest  A request arriving at a full queue is answered
//                status::busy immediately (503-style load shedding).
//   drop_oldest  The longest-waiting queued request is evicted and answered
//                status::busy; the newcomer takes its place.  Freshness
//                beats fairness.
//
// Independently of policy, a request whose queue wait exceeds its own
// deadline_us is answered status::deadline by the worker WITHOUT being
// solved — a per-request latency budget on top of the global queue bound.
//
// Every admitted request gets exactly one answer: a rejection message is cut
// to the wire's string cap (max_string_bytes), and anything thrown while a
// worker serves or encodes a request becomes a status::error response.
//
// Threading contract: sessions_, the poller, and the fd maps belong to the
// IO thread exclusively (no locks).  Workers communicate only through the
// guarded queues plus wake_pipe.  Completions route by monotonic session id,
// never by fd, so a response for a closed session is dropped instead of
// being delivered to whichever new client inherited the fd.
#ifndef HCQ_SERVE_TCP_SERVER_H
#define HCQ_SERVE_TCP_SERVER_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/pipeline.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/socket.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace hcq::serve {

struct server_config {
    std::uint16_t port = 0;         ///< 0 = kernel-assigned ephemeral (see tcp_server::port)
    std::size_t num_workers = 4;    ///< worker threads executing batches
    std::size_t admission_capacity = 256;  ///< max queued (not yet executing) requests
    pipeline::backpressure policy = pipeline::backpressure::block;
};

/// Monotonic counters, readable at any time via tcp_server::stats().
struct server_stats {
    std::uint64_t sessions_accepted = 0;
    std::uint64_t sessions_closed = 0;
    std::uint64_t requests_admitted = 0;
    std::uint64_t served_ok = 0;
    std::uint64_t rejected_busy = 0;      ///< admission-policy rejections (both drop flavours)
    std::uint64_t rejected_deadline = 0;  ///< queue wait exceeded the request's budget
    std::uint64_t bad_requests = 0;       ///< malformed frames / invalid specs
    std::uint64_t internal_errors = 0;
    std::uint64_t evictions = 0;          ///< drop_oldest evictions (subset of rejected_busy)
};

/// The server.  The constructor binds 127.0.0.1:port, starts the workers
/// and the IO thread, and starts accepting; the destructor (or stop())
/// shuts everything down.  Throws std::runtime_error when the port cannot
/// be bound; if a thread fails to start, the ones that did are stopped and
/// joined before the exception propagates.
class tcp_server {
public:
    explicit tcp_server(server_config config);
    ~tcp_server();

    tcp_server(const tcp_server&) = delete;
    tcp_server& operator=(const tcp_server&) = delete;

    /// The actually bound port (resolves an ephemeral port 0 request).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Consistent snapshot of the counters.
    [[nodiscard]] server_stats stats() const HCQ_EXCLUDES(mutex_);

    /// Stops accepting, abandons queued-but-unstarted requests, waits for
    /// in-flight batches, and joins all threads.  Idempotent.
    void stop() HCQ_EXCLUDES(mutex_);

private:
    /// One queued request awaiting a worker.
    struct work_item {
        std::uint64_t session_id = 0;
        request req;
        util::timer queued_at;  ///< started at admission; measures queue wait
    };

    /// One framed response travelling worker -> IO thread.
    struct completion {
        std::uint64_t session_id = 0;
        std::vector<std::uint8_t> frame_bytes;
    };

    enum class input_verdict { drained, parked };

    void io_loop();
    void accept_clients();
    /// Extracts and admits every complete frame buffered on `s`; returns
    /// parked when the block policy paused intake mid-buffer.  Throws
    /// protocol_error on an unparseable stream.
    input_verdict process_input(session& s) HCQ_EXCLUDES(mutex_);
    /// process_input with the protocol_error handler attached: on an
    /// unparseable stream answers status::bad_request and closes the
    /// session, the only bad request that does.  A well-framed request the
    /// worker rejects (an invalid spec or config) is answered bad_request
    /// through the completion queue and the session stays open.  Returns
    /// false when the session was closed.
    bool process_or_close(std::uint64_t session_id, session& s) HCQ_EXCLUDES(mutex_);
    void admit(session& s, request req) HCQ_EXCLUDES(mutex_);
    /// One worker: waits for a request, serves it, queues its response, and
    /// returns once stop is requested (queued requests are abandoned).
    void worker_loop() HCQ_EXCLUDES(mutex_);
    /// The framed response to one popped request: status::deadline past its
    /// budget, else run_batch's ok response; a throw becomes bad_request
    /// (std::invalid_argument) or error.  Never throws.
    [[nodiscard]] std::vector<std::uint8_t> serve_one(const work_item& item) HCQ_EXCLUDES(mutex_);
    void drain_completions() HCQ_EXCLUDES(mutex_);
    void send_to_session(std::uint64_t session_id, std::vector<std::uint8_t> frame_bytes);
    void close_session(std::uint64_t session_id) HCQ_EXCLUDES(mutex_);
    void update_interest(session& s);
    void pause_reads();
    void resume_reads();
    [[nodiscard]] bool admission_full() const HCQ_EXCLUDES(mutex_);
    [[nodiscard]] bool stop_requested() const HCQ_EXCLUDES(mutex_);
    /// A non-ok response; `message` is cut to max_string_bytes so the
    /// response always encodes.
    [[nodiscard]] response rejection(const request& req, status st, double wait_us,
                                     std::string message) HCQ_EXCLUDES(mutex_);
    /// Fills the admission telemetry (queue_depth, in_flight) of `resp`.
    void stamp_admission(response& resp) const HCQ_EXCLUDES(mutex_);
    void bump(std::uint64_t server_stats::* counter) HCQ_EXCLUDES(mutex_);

    server_config config_;
    std::uint16_t port_ = 0;
    unique_fd listener_;
    wake_pipe wake_;
    poller poller_;

    // --- IO-thread-only state (unsynchronised by design) ---
    std::map<std::uint64_t, session> sessions_;
    std::map<int, std::uint64_t> fd_to_id_;
    std::uint64_t next_session_id_ = 1;
    bool paused_ = false;  ///< block policy engaged: socket reads suspended

    // --- shared state ---
    mutable util::mutex mutex_;
    util::cond_var work_ready_;  ///< a request was queued, or stop was requested
    bool stop_ HCQ_GUARDED_BY(mutex_) = false;
    std::deque<work_item> pending_ HCQ_GUARDED_BY(mutex_);  ///< the one request queue
    std::size_t in_flight_ HCQ_GUARDED_BY(mutex_) = 0;  ///< popped, response not yet queued
    std::deque<completion> completions_ HCQ_GUARDED_BY(mutex_);
    server_stats stats_ HCQ_GUARDED_BY(mutex_);

    // --- owner-thread-only state (constructor, stop(), destructor); the
    // threads come last, after everything they use ---
    bool stopped_ = false;  ///< set once stop() has fully run
    std::vector<std::thread> workers_;
    std::thread io_thread_;
};

}  // namespace hcq::serve

#endif  // HCQ_SERVE_TCP_SERVER_H
