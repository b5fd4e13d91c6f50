// Client side of the wire protocol: one connection to a
// netdiag_frontend, speaking strict request/response framing. A
// remote_collector is what a measurement host runs next to its packet
// taps -- it ships binned link loads to the serving host's stream_server
// and surfaces the same ingest_result codes a local ingest would, so
// moving a collector off-host does not change the caller's error
// handling (docs/WIRE_FORMAT.md).
//
// One collector == one connection == one outstanding request: calls are
// NOT thread-safe (give each producer thread its own collector; the
// server multiplexes them through the stream's inbox -- one bounded FIFO
// behind a per-stream mutex -- exactly like local concurrent producers).
// Transport failures and non-ingest protocol errors throw; ingest-shaped
// failures come back as codes.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "net/tcp.h"
#include "net/wire.h"

namespace netdiag::net {

// A resp_error that does not map onto ingest_result: carries the typed
// code next to the server's message.
class remote_error : public std::runtime_error {
public:
    remote_error(wire_errc code, const std::string& message)
        : std::runtime_error(std::string(wire_errc_name(code)) + ": " + message),
          code_(code) {}
    wire_errc code() const noexcept { return code_; }

private:
    wire_errc code_;
};

class remote_collector {
public:
    // Connects to a frontend on 127.0.0.1:port. Throws on refusal.
    explicit remote_collector(std::uint16_t port);

    remote_collector(remote_collector&&) = default;
    remote_collector& operator=(remote_collector&&) = default;

    // Mirrors stream_server::ingest/ingest_batch: the returned
    // ingest_result carries the same codes (unknown_stream,
    // width_mismatch, inbox_full, stream_closed, non_finite) and, on
    // success, the server-assigned first sequence of the run.
    [[nodiscard]] ingest_result ingest(std::uint64_t stream, std::span<const double> y);
    [[nodiscard]] ingest_result ingest_batch(std::uint64_t stream,
                                             const std::vector<std::vector<double>>& bins);

    // Mirrors stream_server::flush_stream; throws remote_error on an
    // unknown stream.
    void flush(std::uint64_t stream);

    // Stream + ingest counters in one round trip.
    stats_response stats(std::uint64_t stream);

    // Fetches the stream's interchange record: the response payload,
    // moved out of the received frame. With detach the server forgets
    // the stream afterwards (the migration read side): from that point
    // its ingests return stream_closed.
    std::string snapshot(std::uint64_t stream, bool detach = false);

    // Installs a record on the server under a fresh id (the migration
    // write side); returns the id to ingest into. The record is sent
    // from where it lies; the server rejects anything but exactly one
    // record (remote_error{malformed_payload}).
    std::uint64_t restore(std::string_view record);

    void close_stream(std::uint64_t stream);

    // Asks the frontend to stop serving (teardown; see
    // netdiag_frontend::stop).
    void shutdown_server();

private:
    frame roundtrip(msg_type request, std::string_view payload, msg_type expected);

    tcp_socket sock_;
    frame_decoder decoder_;
};

}  // namespace netdiag::net
