#include "serve/tcp_server.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "serve/service.h"

namespace hcq::serve {

tcp_server::tcp_server(server_config config)
    : config_(config) {
    if (config_.num_workers == 0) {
        throw std::invalid_argument("serve: server_config.num_workers must be >= 1");
    }
    if (config_.admission_capacity == 0) {
        throw std::invalid_argument("serve: server_config.admission_capacity must be >= 1");
    }
    listener_ = listen_loopback(config_.port, config_.listen_backlog);
    port_ = local_port(listener_.get());
    poller_.add(listener_.get(), /*want_read=*/true, /*want_write=*/false);
    poller_.add(wake_.read_fd(), /*want_read=*/true, /*want_write=*/false);
    pool_ = std::make_unique<util::thread_pool>(config_.num_workers);
    io_thread_ = std::thread([this] { io_loop(); });
}

tcp_server::~tcp_server() { stop(); }

void tcp_server::stop() {
    // stopped_ is only touched by the thread driving stop()/destruction,
    // which is the owner of the server object.
    if (stopped_) return;
    stopped_ = true;
    {
        const util::mutex_lock lock(mutex_);
        stop_ = true;
    }
    wake_.wake();
    if (io_thread_.joinable()) io_thread_.join();
    {
        // Abandon queued-but-unstarted requests so the surplus drain tasks
        // finish instantly; in-flight batches run to completion below.
        const util::mutex_lock lock(mutex_);
        pending_.clear();
    }
    pool_->stop();
}

server_stats tcp_server::stats() const {
    const util::mutex_lock lock(mutex_);
    return stats_;
}

bool tcp_server::stop_requested() const {
    const util::mutex_lock lock(mutex_);
    return stop_;
}

bool tcp_server::admission_full() const {
    const util::mutex_lock lock(mutex_);
    return pending_.size() >= config_.admission_capacity;
}

void tcp_server::bump(std::uint64_t server_stats::* counter) {
    const util::mutex_lock lock(mutex_);
    ++(stats_.*counter);
}

void tcp_server::io_loop() {
    std::vector<ready_event> events;
    while (!stop_requested()) {
        poller_.wait(events, /*timeout_ms=*/-1);
        if (stop_requested()) break;
        for (const auto& e : events) {
            if (e.fd == wake_.read_fd()) {
                wake_.drain();
                continue;
            }
            if (e.fd == listener_.get()) {
                accept_clients();
                continue;
            }
            const auto id_it = fd_to_id_.find(e.fd);
            if (id_it == fd_to_id_.end()) continue;  // closed earlier in this batch
            const std::uint64_t id = id_it->second;
            const auto s_it = sessions_.find(id);
            if (s_it == sessions_.end()) continue;
            session& s = s_it->second;
            if (e.error) {
                close_session(id);
                continue;
            }
            if (e.readable) {
                if (!s.read_ready()) {
                    // Peer hung up; any still-buffered requests have no
                    // deliverable response, so don't bother admitting them.
                    close_session(id);
                    continue;
                }
                if (!process_or_close(id, s)) continue;
            }
            if (e.writable) {
                if (!s.write_ready()) {
                    close_session(id);
                    continue;
                }
            }
            update_interest(s);
        }
        drain_completions();
        if (paused_ && !admission_full()) {
            // A worker freed queue capacity: resume socket reads and replay
            // the frames that were parked in session buffers by the pause.
            paused_ = false;
            resume_reads();
            std::vector<std::uint64_t> parked;
            for (const auto& [id, s] : sessions_) {
                if (s.has_buffered_input()) parked.push_back(id);
            }
            for (const std::uint64_t id : parked) {
                const auto it = sessions_.find(id);
                if (it == sessions_.end()) continue;
                if (process_or_close(id, it->second)) update_interest(it->second);
                if (paused_) break;  // refilled already; the rest stay parked
            }
        }
    }
}

void tcp_server::accept_clients() {
    for (;;) {
        unique_fd client = accept_client(listener_.get());
        if (!client.valid()) return;
        const int fd = client.get();
        const std::uint64_t id = next_session_id_++;
        poller_.add(fd, /*want_read=*/!paused_, /*want_write=*/false);
        fd_to_id_[fd] = id;
        sessions_.emplace(id, session(id, std::move(client)));
        bump(&server_stats::sessions_accepted);
    }
}

tcp_server::input_verdict tcp_server::process_input(session& s) {
    for (;;) {
        if (config_.policy == pipeline::backpressure::block && admission_full()) {
            if (!paused_) {
                paused_ = true;
                pause_reads();
            }
            return input_verdict::parked;
        }
        auto payload = s.next_frame();  // throws protocol_error on a bad prefix
        if (!payload) return input_verdict::drained;
        admit(s, decode_request(*payload));
    }
}

bool tcp_server::process_or_close(std::uint64_t session_id, session& s) {
    try {
        (void)process_input(s);
        return true;
    } catch (const protocol_error& pe) {
        // The stream beyond a malformed frame cannot be re-synchronised:
        // answer bad_request (best effort) and drop the connection.
        response resp;
        resp.state = status::bad_request;
        resp.message = pe.what();
        s.enqueue_output(frame(encode_response(resp)));
        (void)s.write_ready();
        bump(&server_stats::bad_requests);
        close_session(session_id);
        return false;
    }
}

void tcp_server::admit(session& s, request req) {
    std::optional<work_item> evicted;
    bool accepted = false;
    bool submit_drain = false;
    {
        const util::mutex_lock lock(mutex_);
        if (pending_.size() >= config_.admission_capacity) {
            if (config_.policy == pipeline::backpressure::drop_oldest) {
                evicted.emplace(std::move(pending_.front()));
                pending_.pop_front();
                pending_.push_back(work_item{s.id(), std::move(req), util::timer{}});
                ++stats_.evictions;
                ++stats_.rejected_busy;
                ++stats_.requests_admitted;
                accepted = true;
                // The evicted item's drain task now serves the newcomer:
                // one task per queued item stays balanced, no extra submit.
            } else {
                // drop_newest, or the block policy losing the race between
                // its capacity check and a concurrent burst: shed the
                // newcomer with an immediate BUSY.
                ++stats_.rejected_busy;
            }
        } else {
            pending_.push_back(work_item{s.id(), std::move(req), util::timer{}});
            ++stats_.requests_admitted;
            accepted = true;
            submit_drain = true;
        }
    }
    if (submit_drain) pool_->submit([this] { drain_one(); });
    if (evicted) {
        const response resp = rejection(
            evicted->req, status::busy, evicted->queued_at.elapsed_us(),
            "evicted after waiting: admission queue full (capacity " +
                std::to_string(config_.admission_capacity) + ", policy drop-oldest)");
        send_to_session(evicted->session_id, frame(encode_response(resp)),
                        /*close_after=*/false);
    }
    if (!accepted) {
        const response resp =
            rejection(req, status::busy, 0.0,
                      "admission queue full (capacity " +
                          std::to_string(config_.admission_capacity) + ", policy " +
                          pipeline::to_string(config_.policy) + ")");
        s.enqueue_output(frame(encode_response(resp)));
    }
}

void tcp_server::drain_one() {
    work_item item;
    {
        const util::mutex_lock lock(mutex_);
        if (pending_.empty()) return;  // surplus task after stop()'s abandon
        item = std::move(pending_.front());
        pending_.pop_front();
    }
    const double wait_us = item.queued_at.elapsed_us();
    response resp;
    if (item.req.deadline_us > 0.0 && wait_us > item.req.deadline_us) {
        resp = rejection(item.req, status::deadline, wait_us,
                         "queue wait " + std::to_string(wait_us) +
                             " us exceeded the request deadline of " +
                             std::to_string(item.req.deadline_us) + " us");
        bump(&server_stats::rejected_deadline);
    } else {
        try {
            const batch_result result = run_batch(item.req);
            resp = make_ok_response(item.req, result);
            resp.queue_wait_us = wait_us;
            const auto snap = pool_->snapshot();
            resp.in_flight = static_cast<std::uint32_t>(snap.in_flight);
            {
                const util::mutex_lock lock(mutex_);
                resp.queue_depth = static_cast<std::uint32_t>(pending_.size());
            }
            bump(&server_stats::served_ok);
        } catch (const std::invalid_argument& e) {
            resp = rejection(item.req, status::bad_request, wait_us, e.what());
            bump(&server_stats::bad_requests);
        } catch (const std::exception& e) {
            resp = rejection(item.req, status::error, wait_us, e.what());
            bump(&server_stats::internal_errors);
        }
    }
    {
        const util::mutex_lock lock(mutex_);
        completions_.push_back(
            completion{item.session_id, frame(encode_response(resp)), false});
    }
    wake_.wake();
}

void tcp_server::drain_completions() {
    std::deque<completion> batch;
    {
        const util::mutex_lock lock(mutex_);
        batch.swap(completions_);
    }
    for (auto& c : batch) {
        send_to_session(c.session_id, std::move(c.frame_bytes), c.close_after);
    }
}

void tcp_server::send_to_session(std::uint64_t session_id,
                                 std::vector<std::uint8_t> frame_bytes, bool close_after) {
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;  // session gone; drop the response
    it->second.enqueue_output(std::move(frame_bytes));
    if (!it->second.write_ready() || close_after) {
        close_session(session_id);
        return;
    }
    update_interest(it->second);
}

void tcp_server::close_session(std::uint64_t session_id) {
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    poller_.remove(it->second.fd());
    fd_to_id_.erase(it->second.fd());
    sessions_.erase(it);
    bump(&server_stats::sessions_closed);
}

void tcp_server::update_interest(session& s) {
    poller_.modify(s.fd(), /*want_read=*/!paused_, /*want_write=*/s.wants_write());
}

void tcp_server::pause_reads() {
    for (auto& [id, s] : sessions_) {
        poller_.modify(s.fd(), /*want_read=*/false, /*want_write=*/s.wants_write());
    }
}

void tcp_server::resume_reads() {
    for (auto& [id, s] : sessions_) {
        poller_.modify(s.fd(), /*want_read=*/true, /*want_write=*/s.wants_write());
    }
}

response tcp_server::rejection(const request& req, status st, double wait_us,
                               const std::string& message) {
    response resp;
    resp.state = st;
    resp.tenant_id = req.tenant_id;
    resp.request_seq = req.request_seq;
    resp.queue_wait_us = wait_us;
    resp.message = message;
    const auto snap = pool_->snapshot();
    resp.in_flight = static_cast<std::uint32_t>(snap.in_flight);
    {
        const util::mutex_lock lock(mutex_);
        resp.queue_depth = static_cast<std::uint32_t>(pending_.size());
    }
    return resp;
}

}  // namespace hcq::serve
