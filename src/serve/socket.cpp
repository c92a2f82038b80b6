#include "serve/socket.h"

#include <cerrno>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace hcq::serve {
namespace {

std::string errno_message(int err) { return std::system_category().message(err); }

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) throw_errno("fcntl(F_GETFL)");
    if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) throw_errno("fcntl(F_SETFL, O_NONBLOCK)");
}

sockaddr_in loopback_addr(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
}

epoll_event interest_event(int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ev;
}

}  // namespace

void unique_fd::reset(int fd) noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
}

void throw_errno(const std::string& what) {
    throw std::runtime_error("serve: " + what + ": " + errno_message(errno));
}

unique_fd listen_loopback(std::uint16_t port) {
    unique_fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) throw_errno("socket");
    const int one = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
        throw_errno("setsockopt(SO_REUSEADDR)");
    }
    const sockaddr_in addr = loopback_addr(port);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
        throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
    }
    if (::listen(fd.get(), /*backlog=*/128) < 0) throw_errno("listen");
    set_nonblocking(fd.get());
    return fd;
}

std::uint16_t local_port(int fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
        throw_errno("getsockname");
    }
    return ntohs(addr.sin_port);
}

unique_fd accept_client(int listener_fd) {
    for (;;) {
        const int fd = ::accept(listener_fd, nullptr, nullptr);
        if (fd >= 0) {
            unique_fd client(fd);
            set_nonblocking(client.get());
            const int one = 1;
            // Best effort: a client that cannot disable Nagle still works.
            (void)::setsockopt(client.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            return client;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) return unique_fd();
        throw_errno("accept");
    }
}

unique_fd connect_loopback(std::uint16_t port) {
    unique_fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) throw_errno("socket");
    const sockaddr_in addr = loopback_addr(port);
    for (;;) {
        if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
            break;
        }
        if (errno == EINTR) continue;
        throw_errno("connect(127.0.0.1:" + std::to_string(port) + ")");
    }
    const int one = 1;
    (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

io_result read_some(int fd, void* buf, std::size_t len) {
    for (;;) {
        const ssize_t n = ::recv(fd, buf, len, 0);
        if (n > 0) return {static_cast<std::size_t>(n), false, false};
        if (n == 0) return {0, true, false};
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return {0, false, true};
        if (errno == ECONNRESET) return {0, true, false};
        throw_errno("recv");
    }
}

io_result write_some(int fd, const void* buf, std::size_t len) {
    for (;;) {
        // MSG_NOSIGNAL: a peer that already hung up must surface as EPIPE,
        // not kill the server process with SIGPIPE.
        const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
        if (n >= 0) return {static_cast<std::size_t>(n), false, false};
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return {0, false, true};
        if (errno == EPIPE || errno == ECONNRESET) return {0, true, false};
        throw_errno("send");
    }
}

void send_all(int fd, const void* buf, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(buf);
    std::size_t sent = 0;
    while (sent < len) {
        const ssize_t n = ::send(fd, p + sent, len - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("send");
        }
        sent += static_cast<std::size_t>(n);
    }
}

bool recv_exact(int fd, void* buf, std::size_t len) {
    auto* p = static_cast<std::uint8_t*>(buf);
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::recv(fd, p + got, len - got, 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("recv");
        }
        if (n == 0) {
            if (got == 0) return false;  // clean close between frames
            throw std::runtime_error("serve: connection closed mid-frame (got " +
                                     std::to_string(got) + " of " + std::to_string(len) +
                                     " bytes)");
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

wake_pipe::wake_pipe() {
    int fds[2] = {-1, -1};
    if (::pipe(fds) < 0) throw_errno("pipe");
    read_end_.reset(fds[0]);
    write_end_.reset(fds[1]);
    set_nonblocking(read_end_.get());
    set_nonblocking(write_end_.get());
}

void wake_pipe::wake() noexcept {
    const std::uint8_t byte = 1;
    // A full pipe (EAGAIN) already guarantees a pending wakeup; any other
    // failure here is unrecoverable-but-harmless, so the call never throws.
    (void)::write(write_end_.get(), &byte, 1);
}

void wake_pipe::drain() noexcept {
    std::uint8_t buf[256];
    while (::read(read_end_.get(), buf, sizeof(buf)) > 0) {
    }
}

poller::poller() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (!epoll_fd_.valid()) throw_errno("epoll_create1");
}

poller::~poller() = default;

void poller::add(int fd, bool want_read, bool want_write) {
    if (watched_.count(fd) != 0) {
        throw std::logic_error("serve: poller::add: fd " + std::to_string(fd) +
                               " already watched (use modify)");
    }
    epoll_event ev = interest_event(fd, want_read, want_write);
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) throw_errno("epoll_ctl(ADD)");
    watched_.insert(fd);
}

void poller::modify(int fd, bool want_read, bool want_write) {
    if (watched_.count(fd) == 0) {
        throw std::logic_error("serve: poller::modify: fd " + std::to_string(fd) +
                               " not watched (use add)");
    }
    epoll_event ev = interest_event(fd, want_read, want_write);
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) throw_errno("epoll_ctl(MOD)");
}

void poller::remove(int fd) {
    const auto it = watched_.find(fd);
    if (it == watched_.end()) {
        throw std::logic_error("serve: poller::remove: fd " + std::to_string(fd) +
                               " not watched");
    }
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr) < 0) throw_errno("epoll_ctl(DEL)");
    watched_.erase(it);
}

void poller::wait(std::vector<ready_event>& events, int timeout_ms) {
    events.clear();
    epoll_event ready[64];
    int n;
    for (;;) {
        n = ::epoll_wait(epoll_fd_.get(), ready, 64, timeout_ms);
        if (n >= 0) break;
        if (errno == EINTR) continue;
        throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
        const auto flags = ready[i].events;
        events.push_back(ready_event{
            ready[i].data.fd,
            (flags & EPOLLIN) != 0,
            (flags & EPOLLOUT) != 0,
            (flags & (EPOLLERR | EPOLLHUP)) != 0,
        });
    }
}

}  // namespace hcq::serve
