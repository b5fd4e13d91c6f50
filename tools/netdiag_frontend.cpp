// netdiag_frontend: a standalone serving process for the wire protocol
// (docs/WIRE_FORMAT.md). Embeds a stream_server behind a plain-TCP
// loopback frontend, opens a configurable set of tracking streams over
// a deterministic synthetic bootstrap, and serves until a client sends
// req_shutdown (or the process is signalled).
//
// Intended for operational smoke tests and the loopback soak: start it,
// point remote_collector instances at the printed port and stream ids,
// ingest, migrate, compare digests.
//
//   netdiag_frontend [--port P] [--streams N] [--dim D] [--seed S]
//
// Prints one "port <p>" line and one "stream <id>" line per opened
// stream on stdout, then blocks until shutdown.
#include <charconv>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <system_error>

#include "linalg/matrix.h"
#include "net/frontend.h"
#include "serve/stream_server.h"

namespace {

// Deterministic bootstrap bins (same generator shape the tests use): a
// fixed LCG so two runs of the tool serve bit-identical streams.
netdiag::matrix synthetic_bootstrap(std::size_t rows, std::size_t cols,
                                    std::uint64_t seed) {
    netdiag::matrix y(rows, cols, 0.0);
    std::uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            y(r, c) = 100.0 + static_cast<double>((state >> 33) % 1000) / 10.0;
        }
    }
    return y;
}

// A whole decimal argument no larger than max, or nullopt: no sign, no
// blanks, no trailing characters, no wrap-around.
std::optional<std::uint64_t> parse_count(const std::string& text, std::uint64_t max) {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || stop != end || value > max) return std::nullopt;
    return value;
}

int usage() {
    std::cerr << "usage: netdiag_frontend [--port P] [--streams N] [--dim D] [--seed S]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::uint16_t port = 0;
    std::size_t streams = 4;
    std::size_t dim = 8;
    std::uint64_t seed = 99;
    constexpr std::uint64_t max_streams = std::numeric_limits<std::size_t>::max();
    // A stream's bootstrap holds 2 * dim * dim doubles: keep that count in
    // 64 bits.
    constexpr std::uint64_t max_dim = std::uint64_t{1} << 31;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string text = argv[++i];
        std::optional<std::uint64_t> value;
        if (arg == "--port") {
            value = parse_count(text, std::numeric_limits<std::uint16_t>::max());
            if (value) port = static_cast<std::uint16_t>(*value);
        } else if (arg == "--streams") {
            value = parse_count(text, max_streams);
            if (value) streams = static_cast<std::size_t>(*value);
        } else if (arg == "--dim") {
            value = parse_count(text, max_dim);
            if (value) dim = static_cast<std::size_t>(*value);
        } else if (arg == "--seed") {
            value = parse_count(text, std::numeric_limits<std::uint64_t>::max());
            if (value) seed = *value;
        }
        if (!value) return usage();
    }

    try {
        netdiag::stream_server server({.threads = 2});
        for (std::size_t s = 0; s < streams; ++s) {
            netdiag::stream_open_config cfg;
            cfg.kind = netdiag::stream_kind::tracking;
            cfg.bootstrap_y = synthetic_bootstrap(2 * dim, dim, seed + s);
            cfg.max_rank = 3;
            const netdiag::stream_id id = server.open_stream(std::move(cfg));
            std::cout << "stream " << id << "\n";
        }
        netdiag::net::netdiag_frontend frontend(server, port);
        std::cout << "port " << frontend.port() << std::endl;  // flush: parents parse this
        frontend.wait_until_stopped();
        frontend.stop();
    } catch (const std::exception& e) {
        std::cerr << "netdiag_frontend: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
