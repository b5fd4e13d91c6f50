#include "net/remote_collector.h"

#include <utility>

namespace netdiag::net {

namespace {

// Inverse of the frontend's mapping, for the ingest ops whose contract
// is codes-not-exceptions.
ingest_error to_ingest_error(wire_errc e) {
    switch (e) {
        case wire_errc::unknown_stream: return ingest_error::unknown_stream;
        case wire_errc::width_mismatch: return ingest_error::width_mismatch;
        case wire_errc::inbox_full: return ingest_error::inbox_full;
        case wire_errc::stream_closed: return ingest_error::stream_closed;
        case wire_errc::non_finite: return ingest_error::non_finite;
        default: break;
    }
    return ingest_error::ok;  // caller checks first; non-ingest codes throw
}

}  // namespace

remote_collector::remote_collector(std::uint16_t port)
    : sock_(tcp_socket::connect_loopback(port)) {}

frame remote_collector::roundtrip(msg_type request, std::string_view payload,
                                  msg_type expected) {
    sock_.send_frame(static_cast<std::uint8_t>(request), payload);

    frame response;
    for (;;) {
        const frame_decoder::progress p = decoder_.next(response);
        if (p == frame_decoder::progress::frame_ready) break;
        if (p == frame_decoder::progress::error) {
            throw std::runtime_error(std::string("remote_collector: malformed response (") +
                                     frame_error_name(decoder_.error()) + ")");
        }
        if (sock_.recv_into(decoder_) == 0) {
            throw std::runtime_error("remote_collector: connection closed mid-response");
        }
    }
    if (static_cast<msg_type>(response.type) == expected) return response;
    if (static_cast<msg_type>(response.type) == msg_type::resp_error) {
        const error_response err = decode_error_response(response.payload);
        throw remote_error(err.code, err.message);
    }
    throw std::runtime_error("remote_collector: unexpected response frame type " +
                             std::to_string(response.type));
}

ingest_result remote_collector::ingest(std::uint64_t stream, std::span<const double> y) {
    return ingest_batch(stream, {std::vector<double>(y.begin(), y.end())});
}

ingest_result remote_collector::ingest_batch(std::uint64_t stream,
                                             const std::vector<std::vector<double>>& bins) {
    ingest_batch_request req;
    req.stream = stream;
    req.bins = bins;
    try {
        const frame resp = roundtrip(msg_type::req_ingest_batch, encode(req),
                                     msg_type::resp_ingest_batch);
        const ingest_batch_response ok = decode_ingest_batch_response(resp.payload);
        return {ingest_error::ok, ok.sequence, ok.accepted};
    } catch (const remote_error& e) {
        const ingest_error code = to_ingest_error(e.code());
        if (code == ingest_error::ok) throw;  // not an ingest-shaped failure
        return {code, 0, 0};
    }
}

void remote_collector::flush(std::uint64_t stream) {
    const frame resp =
        roundtrip(msg_type::req_flush, encode(flush_request{stream}), msg_type::resp_flush);
    decode_empty(resp.payload, "flush_response");
}

stats_response remote_collector::stats(std::uint64_t stream) {
    const frame resp =
        roundtrip(msg_type::req_stats, encode(stats_request{stream}), msg_type::resp_stats);
    return decode_stats_response(resp.payload);
}

std::string remote_collector::snapshot(std::uint64_t stream, bool detach) {
    frame resp = roundtrip(msg_type::req_snapshot, encode(snapshot_request{stream, detach}),
                           msg_type::resp_snapshot);
    return std::move(resp.payload);  // the payload IS the record
}

std::uint64_t remote_collector::restore(std::string_view record) {
    const frame resp = roundtrip(msg_type::req_restore, record, msg_type::resp_restore);
    return decode_restore_response(resp.payload).stream;
}

void remote_collector::close_stream(std::uint64_t stream) {
    const frame resp =
        roundtrip(msg_type::req_close, encode(close_request{stream}), msg_type::resp_close);
    decode_empty(resp.payload, "close_response");
}

void remote_collector::shutdown_server() {
    const frame resp = roundtrip(msg_type::req_shutdown, {}, msg_type::resp_shutdown);
    decode_empty(resp.payload, "shutdown_response");
}

}  // namespace netdiag::net
