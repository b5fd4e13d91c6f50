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
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

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

}  // namespace

int main(int argc, char** argv) {
    std::uint16_t port = 0;
    std::size_t streams = 4;
    std::size_t dim = 8;
    std::uint64_t seed = 99;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--port" && has_value) {
            port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--streams" && has_value) {
            streams = std::strtoul(argv[++i], nullptr, 10);
        } else if (arg == "--dim" && has_value) {
            dim = std::strtoul(argv[++i], nullptr, 10);
        } else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            std::cerr << "usage: netdiag_frontend [--port P] [--streams N] [--dim D] "
                         "[--seed S]\n";
            return 2;
        }
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
        while (!frontend.stopped()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        frontend.stop();
    } catch (const std::exception& e) {
        std::cerr << "netdiag_frontend: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
