// Async TCP front end over the detection-path registry: one IO thread
// multiplexes every client session through a serve::poller (epoll),
// while a util::thread_pool of workers executes batches against the device
// bank.  The two sides meet in a mutex-guarded admission queue (requests in)
// and completion queue (framed responses out).
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
#include <memory>
#include <thread>
#include <vector>

#include "pipeline/pipeline.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/socket.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hcq::serve {

struct server_config {
    std::uint16_t port = 0;         ///< 0 = kernel-assigned ephemeral (see tcp_server::port)
    std::size_t num_workers = 4;    ///< worker-pool threads executing batches
    std::size_t admission_capacity = 256;  ///< max queued (not yet executing) requests
    pipeline::backpressure policy = pipeline::backpressure::block;
    int listen_backlog = 128;
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

/// The server.  The constructor binds 127.0.0.1:port, spins up the worker
/// pool and the IO thread, and starts accepting; the destructor (or stop())
/// shuts everything down.  Throws std::runtime_error when the port cannot
/// be bound.
class tcp_server {
public:
    explicit tcp_server(server_config config);
    ~tcp_server();

    tcp_server(const tcp_server&) = delete;
    tcp_server& operator=(const tcp_server&) = delete;

    /// The actually bound port (resolves an ephemeral port 0 request).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    [[nodiscard]] const server_config& config() const noexcept { return config_; }

    /// Consistent snapshot of the counters.
    [[nodiscard]] server_stats stats() const HCQ_EXCLUDES(mutex_);

    /// Worker-pool queue state (exercises util::thread_pool::snapshot).
    [[nodiscard]] util::thread_pool::queue_snapshot pool_snapshot() const {
        return pool_->snapshot();
    }

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
    void drain_one() HCQ_EXCLUDES(mutex_);  ///< worker-side: pop + serve one item
    void drain_completions() HCQ_EXCLUDES(mutex_);
    void send_to_session(std::uint64_t session_id, std::vector<std::uint8_t> frame_bytes);
    void close_session(std::uint64_t session_id) HCQ_EXCLUDES(mutex_);
    void update_interest(session& s);
    void pause_reads();
    void resume_reads();
    [[nodiscard]] bool admission_full() const HCQ_EXCLUDES(mutex_);
    [[nodiscard]] bool stop_requested() const HCQ_EXCLUDES(mutex_);
    [[nodiscard]] response rejection(const request& req, status st, double wait_us,
                                     const std::string& message) HCQ_EXCLUDES(mutex_);
    void bump(std::uint64_t server_stats::* counter) HCQ_EXCLUDES(mutex_);

    server_config config_;
    std::uint16_t port_ = 0;
    unique_fd listener_;
    wake_pipe wake_;
    poller poller_;
    std::unique_ptr<util::thread_pool> pool_;
    std::thread io_thread_;
    bool stopped_ = false;  ///< set once stop() has fully run (main thread only)

    // --- IO-thread-only state (unsynchronised by design) ---
    std::map<std::uint64_t, session> sessions_;
    std::map<int, std::uint64_t> fd_to_id_;
    std::uint64_t next_session_id_ = 1;
    bool paused_ = false;  ///< block policy engaged: socket reads suspended

    // --- shared state ---
    mutable util::mutex mutex_;
    bool stop_ HCQ_GUARDED_BY(mutex_) = false;
    std::deque<work_item> pending_ HCQ_GUARDED_BY(mutex_);
    std::deque<completion> completions_ HCQ_GUARDED_BY(mutex_);
    server_stats stats_ HCQ_GUARDED_BY(mutex_);
};

}  // namespace hcq::serve

#endif  // HCQ_SERVE_TCP_SERVER_H
