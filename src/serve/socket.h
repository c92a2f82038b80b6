// Wrapped POSIX sockets and readiness polling for the serving front end.
//
// This module (serve/socket.{h,cpp}) is the ONLY place in the tree allowed
// to touch the raw socket / readiness syscalls — socket(), bind(), accept(),
// connect(), recv(), send(), epoll_*, read()/write() on fds — a
// contract enforced by the `raw-socket` rule in scripts/hcq_lint.py.  Every
// other layer (tcp_server, session, client, tests) speaks in unique_fd,
// io_result, and poller events, so fd lifetime bugs and EINTR/EAGAIN
// handling live in exactly one auditable file.
//
// Scope: loopback TCP on Linux (the poller is epoll).  The serving front end
// multiplexes local clients (and CI loopback self-tests); exposing the
// listener beyond 127.0.0.1 is a deliberate non-goal of this layer.
//
// Concurrency contract: a poller and the fds it watches belong to ONE
// thread (the server's IO thread).  The single cross-thread primitive is
// wake_pipe: any thread may call wake() (an async-signal-safe write on the
// pipe's write end) to make the owning thread's poller::wait return.
#ifndef HCQ_SERVE_SOCKET_H
#define HCQ_SERVE_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace hcq::serve {

/// RAII file descriptor: closes on destruction, move-only.
class unique_fd {
public:
    unique_fd() = default;
    explicit unique_fd(int fd) noexcept : fd_(fd) {}
    ~unique_fd() { reset(); }

    unique_fd(const unique_fd&) = delete;
    unique_fd& operator=(const unique_fd&) = delete;
    unique_fd(unique_fd&& other) noexcept : fd_(other.release()) {}
    unique_fd& operator=(unique_fd&& other) noexcept {
        if (this != &other) {
            reset();
            fd_ = other.release();
        }
        return *this;
    }

    [[nodiscard]] int get() const noexcept { return fd_; }
    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

    /// Closes the held fd (if any) and adopts `fd`.
    void reset(int fd = -1) noexcept;

    /// Relinquishes ownership without closing.
    [[nodiscard]] int release() noexcept {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

private:
    int fd_ = -1;
};

/// Throws std::runtime_error("serve: <what>: <errno message>").
[[noreturn]] void throw_errno(const std::string& what);

/// Non-blocking listener bound to 127.0.0.1:`port` (0 = kernel-assigned
/// ephemeral port, read back via local_port), SO_REUSEADDR set.  Throws on
/// any failure (e.g. the port is taken).
[[nodiscard]] unique_fd listen_loopback(std::uint16_t port, int backlog);

/// The locally bound port of a socket (resolves an ephemeral bind).
[[nodiscard]] std::uint16_t local_port(int fd);

/// Accepts one pending connection from a non-blocking listener, returned
/// non-blocking.  An invalid fd means no connection was pending (EAGAIN);
/// transient per-connection failures (ECONNABORTED) also return invalid.
[[nodiscard]] unique_fd accept_client(int listener_fd);

/// Blocking connect to 127.0.0.1:`port`; the returned socket stays blocking
/// (the client side speaks strict request/response).  TCP_NODELAY is set so
/// small request frames do not sit in Nagle's buffer.
[[nodiscard]] unique_fd connect_loopback(std::uint16_t port);

/// Outcome of one non-blocking read/write attempt.
struct io_result {
    std::size_t bytes = 0;  ///< bytes actually transferred
    bool closed = false;    ///< peer closed (read) or connection broken (write)
    bool again = false;     ///< would block; retry after the next readiness event
};

/// One non-blocking recv into `buf`; EINTR retried internally.
[[nodiscard]] io_result read_some(int fd, void* buf, std::size_t len);

/// One non-blocking send from `buf`; EINTR retried internally.  EPIPE and
/// ECONNRESET report `closed` instead of throwing (a peer that hangs up
/// mid-response is routine for a server).
[[nodiscard]] io_result write_some(int fd, const void* buf, std::size_t len);

/// Blocking send of the whole buffer (client side); throws on any failure.
void send_all(int fd, const void* buf, std::size_t len);

/// Blocking receive of exactly `len` bytes (client side).  Returns false on
/// a clean EOF before the first byte; throws on an error or a mid-buffer
/// EOF (a truncated frame is a protocol violation, not a clean close).
[[nodiscard]] bool recv_exact(int fd, void* buf, std::size_t len);

/// Self-pipe used to interrupt poller::wait from other threads.  wake() is
/// safe to call from any thread; drain() belongs to the owning (IO) thread.
class wake_pipe {
public:
    wake_pipe();  ///< throws on pipe creation failure

    /// Makes the owning thread's poller::wait return (best effort: a full
    /// pipe already guarantees a pending wakeup).
    void wake() noexcept;

    /// Discards all pending wake bytes (owning thread only).
    void drain() noexcept;

    [[nodiscard]] int read_fd() const noexcept { return read_end_.get(); }

private:
    unique_fd read_end_;
    unique_fd write_end_;
};

/// One readiness event from poller::wait.
struct ready_event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  ///< hangup or error condition; drop the fd
};

/// Level-triggered epoll readiness multiplexer (O(ready) wakeups at
/// thousands-of-sessions scale).  Owned by one thread — see the header
/// comment.
class poller {
public:
    /// Throws std::runtime_error on epoll_create failure.
    poller();
    ~poller();

    poller(const poller&) = delete;
    poller& operator=(const poller&) = delete;

    /// Registers / updates / removes interest in `fd`.  add() on an already
    /// registered fd and modify()/remove() on an unknown fd throw
    /// std::logic_error (an interest-bookkeeping bug, not a runtime state).
    void add(int fd, bool want_read, bool want_write);
    void modify(int fd, bool want_read, bool want_write);
    void remove(int fd);

    /// Blocks up to `timeout_ms` (-1 = indefinitely) and fills `events`
    /// (cleared first) with the ready fds.  EINTR retried internally.
    void wait(std::vector<ready_event>& events, int timeout_ms);

private:
    unique_fd epoll_fd_;
    std::set<int> watched_;  ///< interest bookkeeping
};

}  // namespace hcq::serve

#endif  // HCQ_SERVE_SOCKET_H
