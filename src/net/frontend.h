// Serving side of the wire protocol: a request dispatcher plus a
// plain-TCP loopback frontend that drives an embedded stream_server.
//
// handle_request is the whole protocol semantics in one pure-ish
// function (it touches only the stream_server it is given): decode the
// request payload COMPLETELY, apply exactly one server operation, and
// encode the response. Decode-before-apply is the no-partial-apply
// guarantee the fuzz battery (tests/test_wire.cpp) leans on: a payload
// that lies about its length or truncates mid-bin produces a typed
// resp_error and the server's counters do not move. Errors never
// propagate out as exceptions -- every failure becomes a resp_error
// frame with a wire_errc the client can act on.
//
// netdiag_frontend is the transport shell: an accept loop plus one
// thread per connection, each running frame_decoder -> handle_request ->
// tcp_socket::send_frame. Threading here is deliberate and confined: src/net/ is,
// with src/engine/, the only layer allowed to spawn threads
// (netdiag-lint R1) -- connection handling is I/O concurrency, not
// detector compute, and everything a connection applies goes through
// the stream_server's already-concurrent ingest edge.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/sync.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "serve/stream_server.h"

#include <atomic>
#include <thread>

namespace netdiag::net {

// Maps one request frame to its response frame against the server.
// Unknown frame types yield resp_error{unknown_op}; malformed payloads
// yield resp_error{malformed_payload}; an unknown stream id yields
// resp_error{unknown_stream} and every other server-side exception
// resp_error{server_error}. req_shutdown is answered with resp_shutdown
// here and acted on by the transport layer.
frame handle_request(stream_server& server, const frame& request);

class netdiag_frontend {
public:
    // Binds 127.0.0.1:port (0 = ephemeral; read the choice back via
    // port()) and starts serving the given server. The server must
    // outlive the frontend.
    explicit netdiag_frontend(stream_server& server, std::uint16_t port = 0);

    // stop()s; never throws past the teardown.
    ~netdiag_frontend();

    netdiag_frontend(const netdiag_frontend&) = delete;
    netdiag_frontend& operator=(const netdiag_frontend&) = delete;

    std::uint16_t port() const noexcept { return listener_.local_port(); }

    // Stops accepting, force-closes live connections (in-flight requests
    // on other connections are cut -- shutdown is a teardown primitive,
    // not a graceful drain) and joins every thread. Idempotent. The
    // embedded stream_server is untouched: streams, inboxes and counters
    // survive for the owner to snapshot or keep serving locally.
    void stop();

    // True once a req_shutdown was served or stop() was called.
    bool stopped() const noexcept { return stopping_.load(std::memory_order_acquire); }

    // Blocks until stopped() is true: returns once a req_shutdown was
    // served or stop() was called, from any thread. The caller still
    // owes the stop() that joins the frontend's threads.
    void wait_until_stopped();

private:
    struct connection;

    // One served connection: the shared state plus the thread driving
    // it. Lives in workers_ from accept until the reaper (accept loop or
    // stop()) joins the finished thread and erases the entry -- a
    // long-running frontend holds resources only for live connections.
    struct worker {
        std::shared_ptr<connection> conn;
        std::thread thread;
    };

    void accept_loop();
    void serve_connection(const std::shared_ptr<connection>& conn);
    void serve_frames(connection& conn);
    // Joins and erases workers whose connection threads have finished.
    // Called from the accept loop on every new connection, so a daemon
    // serving many short-lived clients does not accumulate fds or
    // thread handles; stop() sweeps whatever is left.
    void reap_finished();
    // stop() minus the joins: safe to call from a connection thread
    // (req_shutdown) -- the joins happen later, in stop()/~.
    void request_stop();

    stream_server& server_;
    tcp_listener listener_;
    std::atomic<bool> stopping_{false};
    sync::mutex mu_;
    std::vector<worker> workers_ NETDIAG_GUARDED_BY(mu_);
    // Signalled under mu_ once stopping_ is set; wait_until_stopped's wait.
    sync::condition_variable stopped_cv_;
    std::thread accept_thread_;
};

}  // namespace netdiag::net
