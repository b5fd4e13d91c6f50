#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace netdiag::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

// iovec's base is void* for readv's sake; sendmsg only reads through it.
iovec piece(std::string_view bytes) {
    return {const_cast<char*>(bytes.data()), bytes.size()};
}

// Pause before retrying an accept() that failed for lack of resources.
constexpr std::chrono::milliseconds k_accept_retry_delay{10};

sockaddr_in loopback_addr(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
}

}  // namespace

tcp_socket::tcp_socket(tcp_socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

tcp_socket& tcp_socket::operator=(tcp_socket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

tcp_socket tcp_socket::connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("tcp_socket: socket");
    tcp_socket sock(fd);
    // Frames are request/response sized; latency beats batching here.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const sockaddr_in addr = loopback_addr(port);
    for (;;) {
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
            return sock;
        }
        if (errno == EINTR) continue;
        throw_errno("tcp_socket: connect to 127.0.0.1:" + std::to_string(port));
    }
}

void tcp_socket::send_frame(std::uint8_t type, std::string_view payload) {
    const frame_envelope env = envelope(type, payload);
    const std::string_view header(env.header.data(), env.header.size());
    const std::string_view trailer(env.trailer.data(), env.trailer.size());
    std::array<iovec, 3> iov = {piece(header), piece(payload), piece(trailer)};
    std::size_t first = 0;
    while (first < iov.size()) {
        msghdr msg{};
        msg.msg_iov = iov.data() + first;
        msg.msg_iovlen = iov.size() - first;
        // MSG_NOSIGNAL: a peer that vanished mid-send must surface as an
        // exception on this thread, not a process-wide SIGPIPE.
        const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("tcp_socket: sendmsg");
        }
        auto sent = static_cast<std::size_t>(n);
        while (first < iov.size() && sent >= iov[first].iov_len) {
            sent -= iov[first].iov_len;
            ++first;
        }
        if (first < iov.size()) {
            iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + sent;
            iov[first].iov_len -= sent;
        }
    }
}

std::size_t tcp_socket::recv_into(frame_decoder& decoder) {
    const std::span<char> window = decoder.prepare();
    for (;;) {
        const ssize_t n = ::recv(fd_, window.data(), window.size(), 0);
        if (n >= 0) {
            decoder.commit(static_cast<std::size_t>(n));
            return static_cast<std::size_t>(n);
        }
        if (errno == EINTR) continue;
        throw_errno("tcp_socket: recv");
    }
}

void tcp_socket::shutdown_both() noexcept {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void tcp_socket::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

tcp_listener::tcp_listener(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("tcp_listener: socket");
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = loopback_addr(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("tcp_listener: bind 127.0.0.1:" + std::to_string(port));
    }
    if (::listen(fd, SOMAXCONN) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("tcp_listener: listen");
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("tcp_listener: getsockname");
    }
    port_ = ntohs(addr.sin_port);
    // Published only once fully set up: accept() and close() load it
    // from other threads.
    fd_.store(fd, std::memory_order_release);
}

tcp_socket tcp_listener::accept() {
    for (;;) {
        // Snapshot the fd: close() may race us (that is its job). It
        // clears fd_ before shutting the socket down, so an accept that
        // fails because the listener is gone finds fd_ < 0 on the next
        // pass and reports the invalid socket that means "closed".
        const int fd = fd_.load(std::memory_order_acquire);
        if (fd < 0) return tcp_socket{};
        const int conn = ::accept(fd, nullptr, nullptr);
        if (conn >= 0) {
            tcp_socket sock(conn);
            const int one = 1;
            (void)::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            return sock;
        }
        // Unless close() caused it, the failure is the connection's or the
        // process's, not the listener's: a peer that reset before we
        // accepted (ECONNABORTED, or a pending network error Linux reports
        // here) or a resource limit (EMFILE, ENFILE, ENOBUFS, ENOMEM).
        // Keep listening; back off briefly unless the failure was an
        // interrupt or an aborted peer, so a process out of descriptors
        // does not spin while it waits for connections to close.
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (fd_.load(std::memory_order_acquire) < 0) return tcp_socket{};
        std::this_thread::sleep_for(k_accept_retry_delay);
    }
}

void tcp_listener::close() noexcept {
    // exchange: exactly one closer wins even when ~tcp_listener races a
    // concurrent explicit close().
    const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
        // shutdown() wakes a thread blocked in accept() before the fd
        // goes away; closing alone leaves it parked on Linux.
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
}

}  // namespace netdiag::net
