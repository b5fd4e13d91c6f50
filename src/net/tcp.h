// Minimal POSIX TCP wrappers for the wire protocol -- the ONLY home of
// raw socket calls in the tree (netdiag-lint rule R6 enforces that; see
// docs/STATIC_ANALYSIS.md). Loopback-oriented: the listener binds
// 127.0.0.1 (port 0 picks an ephemeral port, read back via
// local_port()), and connect targets loopback too -- the frontend is a
// building block for same-host/same-rack deployments and tests, not an
// internet-facing server (no TLS, no auth; see docs/WIRE_FORMAT.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "net/wire.h"

namespace netdiag::net {

// One connected socket, move-only, closed on destruction. It speaks
// frames: I/O failures throw std::runtime_error; a clean peer shutdown
// is a 0 return from recv_into, not an error.
class tcp_socket {
public:
    tcp_socket() = default;
    explicit tcp_socket(int fd) noexcept : fd_(fd) {}
    ~tcp_socket() { close(); }

    tcp_socket(tcp_socket&& other) noexcept;
    tcp_socket& operator=(tcp_socket&& other) noexcept;
    tcp_socket(const tcp_socket&) = delete;
    tcp_socket& operator=(const tcp_socket&) = delete;

    // Connects to 127.0.0.1:port. Throws std::runtime_error on failure.
    static tcp_socket connect_loopback(std::uint16_t port);

    bool valid() const noexcept { return fd_ >= 0; }

    // Sends one frame as a gathered sendmsg (looping over partial sends):
    // header, payload and CRC trailer leave from where they are, and the
    // payload is never copied into a joined buffer. Throws
    // std::runtime_error on a broken connection, std::invalid_argument
    // when the payload exceeds k_max_payload.
    void send_frame(std::uint8_t type, std::string_view payload);

    // Reads what one recv delivers straight into the decoder's window
    // (frame_decoder::prepare/commit) -- possibly a split mid-frame,
    // which the decoder is built to absorb. Returns the byte count, 0 on
    // orderly peer shutdown; throws on errors.
    std::size_t recv_into(frame_decoder& decoder);

    // Half-closes both directions (wakes a peer blocked in recv).
    void shutdown_both() noexcept;
    void close() noexcept;

private:
    int fd_ = -1;
};

// A listening socket on 127.0.0.1. close() (or destruction) from any
// thread unblocks a pending accept(), which then returns an invalid
// socket -- the serve loop's shutdown signal.
class tcp_listener {
public:
    // port 0 binds an ephemeral port. Throws std::runtime_error when the
    // socket cannot be created/bound.
    explicit tcp_listener(std::uint16_t port);
    ~tcp_listener() { close(); }

    tcp_listener(const tcp_listener&) = delete;
    tcp_listener& operator=(const tcp_listener&) = delete;

    std::uint16_t local_port() const noexcept { return port_; }

    // Blocks for the next connection. Returns an invalid socket only once
    // the listener is closed; a failed accept() (a descriptor limit, a
    // peer that reset first) is retried, after a short pause when the
    // process is out of resources.
    tcp_socket accept();

    void close() noexcept;

private:
    // Atomic because close() (from any thread; that is the accept-loop
    // shutdown signal) races accept()'s snapshot of the fd by design.
    std::atomic<int> fd_{-1};
    std::uint16_t port_ = 0;
};

}  // namespace netdiag::net
