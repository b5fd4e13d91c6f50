// Loopback integration for the wire protocol: a real netdiag_frontend
// serving a real stream_server over 127.0.0.1 TCP, driven by
// remote_collector clients. The standing claim is transport
// transparency -- a remote ingest produces exactly the bytes, codes and
// counters a local one would -- capped by the soak: four concurrent
// collectors plus one forced mid-stream migration, digest-compared
// against a single-process run.
#include "net/frontend.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "linalg/matrix.h"
#include "net/migration.h"
#include "net/protocol.h"
#include "net/remote_collector.h"
#include "net/wire.h"
#include "serve/stream_server.h"

namespace netdiag {
namespace {

// Deterministic data (fixed LCG, the netdiag_frontend tool's generator):
// every test below compares a remote run against a local shadow fed the
// byte-identical bins.
std::uint64_t lcg_next(std::uint64_t& state) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
}

matrix synthetic_bootstrap(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    matrix y(rows, cols, 0.0);
    std::uint64_t state = seed;
    lcg_next(state);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            y(r, c) = 100.0 + static_cast<double>(lcg_next(state) % 1000) / 10.0;
        }
    }
    return y;
}

std::vector<double> synthetic_bin(std::size_t dim, std::uint64_t seed) {
    std::vector<double> bin(dim);
    std::uint64_t state = seed * 977 + 13;
    lcg_next(state);
    for (std::size_t i = 0; i < dim; ++i) {
        bin[i] = 95.0 + static_cast<double>(lcg_next(state) % 2000) / 20.0;
    }
    return bin;
}

constexpr std::size_t k_dim = 6;

stream_open_config tracking_config(std::uint64_t seed) {
    stream_open_config cfg;
    cfg.kind = stream_kind::tracking;
    cfg.bootstrap_y = synthetic_bootstrap(2 * k_dim, k_dim, seed);
    cfg.max_rank = 2;
    return cfg;
}

// The digest both sides are compared by: the stream's interchange
// record (detector state + inbox configuration + counters + residue),
// byte for byte.
std::string local_record(stream_server& server, stream_id id) {
    std::ostringstream out(std::ios::binary);
    server.snapshot_stream(id, out, ckpt::encoding::interchange);
    return std::move(out).str();
}

TEST(Loopback, RemoteIngestMatchesALocalShadowBitForBit) {
    stream_server remote_server({.threads = 0});
    const stream_id remote_id = remote_server.open_stream(tracking_config(7));
    net::netdiag_frontend frontend(remote_server);

    stream_server shadow({.threads = 0});
    const stream_id shadow_id = shadow.open_stream(tracking_config(7));

    net::remote_collector collector(frontend.port());
    for (std::size_t i = 0; i < 24; ++i) {
        const std::vector<double> bin = synthetic_bin(k_dim, i);
        const ingest_result remote = collector.ingest(remote_id, bin);
        const ingest_result local = shadow.ingest(shadow_id, bin);
        ASSERT_TRUE(remote.ok()) << i;
        EXPECT_EQ(remote.sequence, local.sequence) << i;
        EXPECT_EQ(remote.accepted, local.accepted) << i;
    }
    // Batch ingest through the same path.
    std::vector<std::vector<double>> batch;
    std::vector<std::span<const double>> batch_spans;
    for (std::size_t i = 24; i < 40; ++i) batch.push_back(synthetic_bin(k_dim, i));
    for (const std::vector<double>& bin : batch) batch_spans.emplace_back(bin);
    const ingest_result remote_batch = collector.ingest_batch(remote_id, batch);
    const ingest_result local_batch = shadow.ingest_batch(shadow_id, batch_spans);
    ASSERT_TRUE(remote_batch.ok());
    EXPECT_EQ(remote_batch.sequence, local_batch.sequence);
    EXPECT_EQ(remote_batch.accepted, local_batch.accepted);

    collector.flush(remote_id);
    shadow.flush_stream(shadow_id);

    // Counters agree field by field...
    const net::stats_response remote_stats = collector.stats(remote_id);
    const ingest_stats local_stats = shadow.ingest_statistics(shadow_id);
    const stream_server::stream_stats local_ss = shadow.stats(shadow_id);
    EXPECT_EQ(remote_stats.dimension, local_ss.dimension);
    EXPECT_EQ(remote_stats.processed, local_ss.processed);
    EXPECT_EQ(remote_stats.alarms, local_ss.alarms);
    EXPECT_EQ(remote_stats.epoch, local_ss.epoch);
    EXPECT_EQ(remote_stats.accepted, local_stats.accepted);
    EXPECT_EQ(remote_stats.applied, local_stats.applied);
    EXPECT_EQ(remote_stats.dropped, local_stats.dropped);
    EXPECT_EQ(remote_stats.rejected, local_stats.rejected);
    EXPECT_EQ(remote_stats.pending, 0u);
    EXPECT_EQ(remote_stats.next_sequence, local_stats.next_sequence);

    // ...and the full stream records are byte-identical: the wire added
    // routing, never arithmetic.
    EXPECT_EQ(collector.snapshot(remote_id), local_record(shadow, shadow_id));

    frontend.stop();
}

// A remote req_stats reads a stream's detector counters while another
// connection's ingest pushes bins through the detector. The drainer
// publishes the counters after every bin, so the poller sees them grow
// monotonically (and ThreadSanitizer sees no race), and once the ingest
// is flushed they equal a local shadow's.
TEST(Loopback, StatsPollingDuringRemoteIngestMatchesTheShadow) {
    constexpr std::size_t k_bins = 1000;
    stream_server server({.threads = 0});
    const stream_id id = server.open_stream(tracking_config(21));
    net::netdiag_frontend frontend(server);

    std::atomic<bool> ingest_done{false};
    std::thread producer([&] {
        net::remote_collector collector(frontend.port());
        for (std::size_t i = 0; i < k_bins; ++i) {
            if (!collector.ingest(id, synthetic_bin(k_dim, 7000 + i)).ok()) {
                ADD_FAILURE() << "remote ingest failed at bin " << i;
                break;
            }
        }
        ingest_done.store(true, std::memory_order_release);
    });

    net::remote_collector poller(frontend.port());
    std::size_t polls = 0;
    net::stats_response last;
    while (!ingest_done.load(std::memory_order_acquire)) {
        const net::stats_response st = poller.stats(id);
        EXPECT_GE(st.processed, last.processed);
        EXPECT_GE(st.alarms, last.alarms);
        EXPECT_GE(st.epoch, last.epoch);
        EXPECT_LE(st.alarms, st.processed);
        last = st;
        ++polls;
    }
    producer.join();
    EXPECT_GT(polls, 0u);

    stream_server shadow({.threads = 0});
    const stream_id shadow_id = shadow.open_stream(tracking_config(21));
    for (std::size_t i = 0; i < k_bins; ++i) {
        ASSERT_TRUE(shadow.ingest(shadow_id, synthetic_bin(k_dim, 7000 + i)).ok()) << i;
    }
    shadow.flush_stream(shadow_id);

    poller.flush(id);
    const net::stats_response got = poller.stats(id);
    const stream_server::stream_stats want = shadow.stats(shadow_id);
    EXPECT_EQ(got.processed, k_bins);
    EXPECT_EQ(got.processed, want.processed);
    EXPECT_EQ(got.alarms, want.alarms);
    EXPECT_EQ(got.epoch, want.epoch);
    EXPECT_EQ(got.applied, k_bins);
    frontend.stop();
}

TEST(Loopback, RemoteErrorsCarryTheSameCodesALocalIngestWould) {
    stream_server server({.threads = 0});
    const stream_id id = server.open_stream(tracking_config(3));
    net::netdiag_frontend frontend(server);
    net::remote_collector collector(frontend.port());

    // Ingest-shaped failures come back as codes, not exceptions.
    EXPECT_EQ(collector.ingest(id + 999, synthetic_bin(k_dim, 0)).error,
              ingest_error::unknown_stream);
    EXPECT_EQ(collector.ingest(id, synthetic_bin(k_dim + 1, 0)).error,
              ingest_error::width_mismatch);

    // Non-ingest ops throw typed remote_error.
    try {
        collector.flush(id + 999);
        FAIL() << "flush of an unknown stream must throw";
    } catch (const net::remote_error& e) {
        EXPECT_EQ(e.code(), net::wire_errc::unknown_stream);
    }
    try {
        (void)collector.restore("definitely not an interchange record");
        FAIL() << "restore of a malformed record must throw";
    } catch (const net::remote_error& e) {
        // A record the checkpoint codec rejects is a malformed payload
        // under the strict-decode contract, not a server-side fault.
        EXPECT_EQ(e.code(), net::wire_errc::malformed_payload);
    }

    // The errors above must not have perturbed the stream: it still
    // serves, and its counters saw only the rejected-width bin.
    ASSERT_TRUE(collector.ingest(id, synthetic_bin(k_dim, 1)).ok());
    collector.flush(id);
    const net::stats_response stats = collector.stats(id);
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.applied, 1u);
    EXPECT_EQ(stats.rejected, 1u);

    frontend.stop();
}

// A refitting diagnoser over the synthetic links, with identity routing
// (one OD flow per link) and a pinned normal rank.
stream_open_config diagnoser_config(std::uint64_t seed) {
    stream_open_config cfg;
    cfg.kind = stream_kind::diagnoser;
    cfg.bootstrap_y = synthetic_bootstrap(4 * k_dim, k_dim, seed);
    cfg.a = matrix(k_dim, k_dim, 0.0);
    for (std::size_t i = 0; i < k_dim; ++i) cfg.a(i, i) = 1.0;
    cfg.streaming.window = 4 * k_dim;
    cfg.streaming.refit_interval = 5;
    cfg.streaming.swap_horizon = 2;
    cfg.streaming.mode = refit_mode::deferred;
    cfg.streaming.separation.fixed_rank = 2;
    return cfg;
}

TEST(Loopback, NonFiniteBinsAreRefusedWithTheLocalCode) {
    // The frame carries raw IEEE doubles, so a NaN or an infinity reaches
    // the server intact and is refused there: the collector gets the
    // typed code, nothing is applied, and the stream's detector state
    // after the clean bins that follow -- across refits -- is byte for
    // byte a standalone detector's that never saw the bad bins.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const bool diagnoser : {true, false}) {
        const stream_open_config cfg = diagnoser ? diagnoser_config(5) : tracking_config(5);
        stream_server server({.threads = 2});
        const stream_id id = server.open_stream(cfg);
        net::netdiag_frontend frontend(server);
        net::remote_collector collector(frontend.port());

        std::unique_ptr<stream_detector> shadow;
        if (diagnoser) {
            shadow = std::make_unique<streaming_diagnoser>(cfg.bootstrap_y, cfg.a, cfg.streaming);
        } else {
            shadow = std::make_unique<tracking_detector>(cfg.bootstrap_y, cfg.max_rank);
        }

        std::uint64_t refused = 0;
        for (std::size_t i = 0; i < 24; ++i) {
            const std::vector<double> clean = synthetic_bin(k_dim, 300 + i);
            if (i % 4 == 0) {
                std::vector<double> nan_bin = clean;
                nan_bin[i % k_dim] = nan;
                std::vector<double> inf_bin = clean;
                inf_bin[(i + 1) % k_dim] = -inf;
                EXPECT_EQ(collector.ingest(id, nan_bin).error, ingest_error::non_finite) << i;
                EXPECT_EQ(collector.ingest_batch(id, {clean, inf_bin}).error,
                          ingest_error::non_finite)
                    << i;
                refused += 3;
            }
            ASSERT_TRUE(collector.ingest(id, clean).ok()) << i;
            (void)shadow->push_bin(clean);
        }
        collector.flush(id);

        const net::stats_response stats = collector.stats(id);
        EXPECT_EQ(stats.accepted, 24u);
        EXPECT_EQ(stats.applied, 24u);
        EXPECT_EQ(stats.processed, 24u);
        EXPECT_EQ(stats.rejected, refused);
        EXPECT_EQ(stats.epoch, shadow->model_epoch());
        EXPECT_GE(stats.epoch, 2u) << "no refit was spanned";

        // The detector record nests last in the stream record.
        std::ostringstream detector_record(std::ios::binary);
        ckpt::set_encoding(detector_record, ckpt::encoding::interchange);
        shadow->save(detector_record);
        EXPECT_TRUE(collector.snapshot(id).ends_with(std::move(detector_record).str()));

        frontend.stop();
    }
}

// A refit that throws std::invalid_argument fails the ingest that
// triggered it on a stream that stays open. Locally the ingest throws;
// remotely the same bins surface as remote_error{server_error}, never as
// the unknown_stream code an unknown id gets.
TEST(Loopback, RefitFailureIsAServerErrorNotAnUnknownStream) {
    stream_open_config cfg = diagnoser_config(13);
    cfg.streaming.mode = refit_mode::blocking;
    cfg.streaming.refit_interval = 3;
    cfg.streaming.refit_observer = [] { throw std::invalid_argument("refit refused"); };

    stream_server local({.threads = 0});
    const stream_id local_id = local.open_stream(cfg);
    stream_server server({.threads = 0});
    const stream_id id = server.open_stream(cfg);
    net::netdiag_frontend frontend(server);
    net::remote_collector collector(frontend.port());

    for (std::size_t i = 0; i < 2; ++i) {
        const std::vector<double> bin = synthetic_bin(k_dim, 500 + i);
        ASSERT_TRUE(local.ingest(local_id, bin).ok()) << i;
        ASSERT_TRUE(collector.ingest(id, bin).ok()) << i;
    }
    const std::vector<double> third = synthetic_bin(k_dim, 502);
    EXPECT_THROW((void)local.ingest(local_id, third), std::invalid_argument);
    try {
        (void)collector.ingest(id, third);
        ADD_FAILURE() << "the refit failure did not surface remotely";
    } catch (const net::remote_error& e) {
        EXPECT_EQ(e.code(), net::wire_errc::server_error) << e.what();
    }

    // The stream is still open, and the failed bin counts as dropped.
    EXPECT_EQ(server.stream_count(), 1u);
    const net::stats_response stats = collector.stats(id);
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.applied, 2u);
    EXPECT_EQ(stats.dropped, 1u);
    EXPECT_EQ(stats.pending, 0u);
    frontend.stop();
}

// One open descriptor per entry in /proc/self/fd (Linux, which is what
// CI runs). Counting our own fds is how the reaping claim below becomes
// observable without poking at frontend internals.
std::size_t open_fd_count() {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        ++n;
    }
    return n;
}

// A long-running frontend must not hold resources per connection it has
// EVER served, only per connection currently alive: each serve thread
// closes its socket on exit and the accept loop join-and-erases
// finished workers. Without reaping, this test's fd count grows by one
// per collector and the assertion fails.
TEST(Loopback, FinishedConnectionsReleaseTheirFileDescriptors) {
    stream_server server({.threads = 0});
    const stream_id id = server.open_stream(tracking_config(9));
    net::netdiag_frontend frontend(server);

    const std::size_t baseline = open_fd_count();
    constexpr std::size_t k_connections = 32;
    for (std::size_t i = 0; i < k_connections; ++i) {
        net::remote_collector collector(frontend.port());
        ASSERT_TRUE(collector.ingest(id, synthetic_bin(k_dim, i)).ok());
    }

    // The server side closes each fd when it observes the peer's
    // disconnect; poll briefly for the last ones to be noticed.
    std::size_t now = open_fd_count();
    for (int spins = 0; now > baseline + 4 && spins < 5000; ++spins) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        now = open_fd_count();
    }
    EXPECT_LE(now, baseline + 4) << "served " << k_connections
                                 << " connections, baseline " << baseline;

    // Still serving after the churn.
    net::remote_collector collector(frontend.port());
    ASSERT_TRUE(collector.ingest(id, synthetic_bin(k_dim, 999)).ok());
    frontend.stop();
}

// Connects a raw client socket (created by the caller, so connecting
// needs no new descriptor) to the loopback port.
bool connect_raw(int fd, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
}

// One req_stats round trip on a fresh connection whose receive times out
// after 2 s: false when no stats response arrives in time, so a frontend
// that stopped accepting fails the caller instead of hanging it.
bool stats_answered(std::uint16_t port, std::uint64_t stream) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    const timeval timeout{2, 0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    bool answered = false;
    const std::string request =
        net::encode_frame(static_cast<std::uint8_t>(net::msg_type::req_stats),
                          net::encode(net::stats_request{stream}));
    if (connect_raw(fd, port) &&
        ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(request.size())) {
        net::frame_decoder decoder;
        net::frame reply;
        for (;;) {
            const net::frame_decoder::progress p = decoder.next(reply);
            if (p == net::frame_decoder::progress::frame_ready) {
                answered = reply.type == static_cast<std::uint8_t>(net::msg_type::resp_stats);
                break;
            }
            if (p == net::frame_decoder::progress::error) break;
            const std::span<char> window = decoder.prepare();
            const ssize_t got = ::recv(fd, window.data(), window.size(), 0);
            if (got <= 0) break;  // timed out, reset or closed
            decoder.commit(static_cast<std::size_t>(got));
        }
    }
    ::close(fd);
    return answered;
}

// The death-test child's body: fill the descriptor table so the
// frontend's accept() fails with EMFILE, free it again, and exit 0 only
// if a fresh connection's req_stats is answered.
[[noreturn]] void serve_after_a_descriptor_shortage() {
    stream_server server({.threads = 0});
    const stream_id id = server.open_stream(tracking_config(3));
    net::netdiag_frontend frontend(server);

    // The first client's socket exists before the limit drops, so its
    // connect() needs no descriptor, but the accept() answering it does.
    // The lowest free descriptor number is the limit at which every new
    // descriptor fails.
    const int first = ::socket(AF_INET, SOCK_STREAM, 0);
    const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
    rlimit saved{};
    if (first < 0 || probe < 0 || ::getrlimit(RLIMIT_NOFILE, &saved) != 0) std::_Exit(2);
    ::close(probe);
    rlimit lowered = saved;
    lowered.rlim_cur = static_cast<rlim_t>(probe);
    if (::setrlimit(RLIMIT_NOFILE, &lowered) != 0) std::_Exit(2);
    const bool connected = connect_raw(first, frontend.port());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));  // accept() hits EMFILE
    if (::setrlimit(RLIMIT_NOFILE, &saved) != 0 || !connected) std::_Exit(2);

    const bool answered = stats_answered(frontend.port(), id);
    const bool stopped = frontend.stopped();
    // No teardown: the verdict is the exit code.
    std::_Exit(answered && !stopped ? 0 : 1);
}

// A failed accept() is the process's trouble, not the listener's: while
// the descriptor table is full accept() fails with EMFILE, and once
// descriptors free up the frontend must serve new connections again.
// The lowered limit stays inside the death-test child.
TEST(LoopbackDeathTest, AcceptRecoversFromADescriptorShortage) {
#ifdef GTEST_FLAG_SET
    GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
    EXPECT_EXIT(serve_after_a_descriptor_shortage(), ::testing::ExitedWithCode(0), "");
}

TEST(Loopback, ShutdownRequestStopsTheFrontendButNotTheServer) {
    stream_server server({.threads = 0});
    const stream_id id = server.open_stream(tracking_config(5));
    net::netdiag_frontend frontend(server);
    std::atomic<bool> woke{false};
    std::thread waiter([&] {
        frontend.wait_until_stopped();
        woke.store(true);
    });
    {
        net::remote_collector collector(frontend.port());
        EXPECT_TRUE(collector.ingest(id, synthetic_bin(k_dim, 0)).ok());
        EXPECT_FALSE(woke.load()) << "an ingest woke the shutdown wait";
        collector.shutdown_server();
    }
    waiter.join();  // must return: the served req_shutdown wakes the wait
    EXPECT_TRUE(woke.load());
    frontend.stop();  // must not hang: req_shutdown already initiated it
    EXPECT_TRUE(frontend.stopped());

    // The embedded server survives the frontend: the stream still serves
    // locally with its counters intact.
    server.flush_stream(id);
    const ingest_stats stats = server.ingest_statistics(id);
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.applied, 1u);
}

TEST(Loopback, StopFromAnotherThreadWakesTheShutdownWait) {
    stream_server server({.threads = 0});
    net::netdiag_frontend frontend(server);
    std::thread waiter([&] { frontend.wait_until_stopped(); });
    std::thread stopper([&] { frontend.stop(); });
    stopper.join();
    waiter.join();  // must return: stop() wakes the wait
    EXPECT_TRUE(frontend.stopped());
    frontend.wait_until_stopped();  // already stopped: returns at once
}

// The tentpole claim end to end, minus concurrency: migrate a stream
// between two serving processes' servers over the wire, keep ingesting
// on the target, and the final record is byte-identical to a shadow
// that never migrated.
TEST(Loopback, WireMigrationIsBitIdenticalToAnUnmigratedShadow) {
    stream_server server_a({.threads = 0});
    stream_server server_b({.threads = 0});
    const stream_id id_a = server_a.open_stream(tracking_config(11));
    net::netdiag_frontend frontend_a(server_a);
    net::netdiag_frontend frontend_b(server_b);

    stream_server shadow({.threads = 0});
    const stream_id shadow_id = shadow.open_stream(tracking_config(11));

    net::remote_collector collector_a(frontend_a.port());
    net::remote_collector collector_b(frontend_b.port());

    for (std::size_t i = 0; i < 20; ++i) {
        const std::vector<double> bin = synthetic_bin(k_dim, 500 + i);
        ASSERT_TRUE(collector_a.ingest(id_a, bin).ok());
        ASSERT_TRUE(shadow.ingest(shadow_id, bin).ok());
    }
    // Leave pending residue in the inbox on purpose: auto_drain has
    // applied most bins, but the record must carry whatever is pending
    // at detach time -- migrating must not force a flush.

    const std::uint64_t id_b = net::migrate_stream(collector_a, id_a, collector_b);

    // The source forgot the stream.
    EXPECT_EQ(collector_a.ingest(id_a, synthetic_bin(k_dim, 0)).error,
              ingest_error::unknown_stream);

    // Conservation across the move, before any new ingest.
    const net::stats_response moved = collector_b.stats(id_b);
    EXPECT_EQ(moved.accepted, 20u);
    EXPECT_EQ(moved.accepted, moved.applied + moved.dropped + moved.pending);

    for (std::size_t i = 20; i < 36; ++i) {
        const std::vector<double> bin = synthetic_bin(k_dim, 500 + i);
        ASSERT_TRUE(collector_b.ingest(id_b, bin).ok());
        ASSERT_TRUE(shadow.ingest(shadow_id, bin).ok());
    }
    collector_b.flush(id_b);
    shadow.flush_stream(shadow_id);

    EXPECT_EQ(collector_b.snapshot(id_b), local_record(shadow, shadow_id));

    frontend_a.stop();
    frontend_b.stop();
}

// A record past a mebibyte (20k pending residue bins) crosses the wire
// both ways: each end receives it in frames that span many reads, and
// the gathered send ships it without joining header, record and
// trailer. The migrated stream still matches a shadow that never left
// the host, byte for byte.
TEST(Loopback, MebibyteRecordMigratesBitIdentically) {
    constexpr std::size_t k_pending = 20000;
    stream_open_config cfg = tracking_config(21);
    cfg.ingest.capacity = std::size_t{1} << 15;
    cfg.ingest.auto_drain = false;
    stream_server server_a({.threads = 0});
    stream_server server_b({.threads = 0});
    stream_server shadow({.threads = 0});
    const stream_id id_a = server_a.open_stream(cfg);
    const stream_id shadow_id = shadow.open_stream(cfg);

    std::vector<std::vector<double>> bins;
    for (std::size_t i = 0; i < k_pending; ++i) bins.push_back(synthetic_bin(k_dim, 900 + i));
    const std::vector<std::span<const double>> spans(bins.begin(), bins.end());
    ASSERT_TRUE(server_a.ingest_batch(id_a, spans).ok());
    ASSERT_TRUE(shadow.ingest_batch(shadow_id, spans).ok());

    net::netdiag_frontend frontend_a(server_a);
    net::netdiag_frontend frontend_b(server_b);
    net::remote_collector collector_a(frontend_a.port());
    net::remote_collector collector_b(frontend_b.port());

    const std::string record = collector_a.snapshot(id_a);
    ASSERT_GT(record.size(), std::size_t{1} << 20);
    EXPECT_TRUE(record == local_record(shadow, shadow_id));

    const std::uint64_t id_b = net::migrate_stream(collector_a, id_a, collector_b);
    EXPECT_EQ(collector_b.stats(id_b).pending, k_pending);
    collector_b.flush(id_b);
    shadow.flush_stream(shadow_id);
    EXPECT_TRUE(collector_b.snapshot(id_b) == local_record(shadow, shadow_id));

    frontend_a.stop();
    frontend_b.stop();
}

// The soak the CI loopback job runs: one frontend serving four streams,
// four concurrent collector threads, one stream forcibly migrated to a
// second server mid-run while its producer keeps ingesting. Producers
// treat stream_closed/unknown_stream as the migration signal, re-point
// at the target and RETRY the failed bin (which was not enqueued), so
// every bin lands exactly once. Digest: every final stream record must
// be byte-identical to a single-process shadow run.
TEST(Loopback, SoakFourCollectorsSurviveAForcedMigration) {
    constexpr std::size_t k_streams = 4;
    constexpr std::size_t k_bins = 120;
    constexpr std::size_t k_migrate_at = 45;  // bins stream 0 ingests pre-migration

    stream_server server_a({.threads = 2});
    stream_server server_b({.threads = 2});
    std::vector<stream_id> ids;
    for (std::size_t s = 0; s < k_streams; ++s) {
        ids.push_back(server_a.open_stream(tracking_config(100 + s)));
    }
    net::netdiag_frontend frontend_a(server_a);
    net::netdiag_frontend frontend_b(server_b);

    std::atomic<bool> migration_armed{false};  // producer 0 passed k_migrate_at
    std::atomic<std::uint64_t> migrated_id{0};
    std::atomic<bool> migration_done{false};

    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < k_streams; ++s) {
        producers.emplace_back([&, s] {
            net::remote_collector collector(frontend_a.port());
            bool on_target = false;
            std::uint64_t id = ids[s];
            for (std::size_t i = 0; i < k_bins; ++i) {
                const std::vector<double> bin = synthetic_bin(k_dim, s * 100000 + i);
                for (;;) {
                    const ingest_result r = collector.ingest(id, bin);
                    if (r.ok()) break;
                    // Only the migrated stream's producer may ever see a
                    // failure, and only the migration-shaped codes.
                    ASSERT_EQ(s, 0u);
                    ASSERT_TRUE(r.error == ingest_error::stream_closed ||
                                r.error == ingest_error::unknown_stream)
                        << static_cast<int>(r.error);
                    ASSERT_FALSE(on_target);
                    while (!migration_done.load(std::memory_order_acquire)) {
                        std::this_thread::yield();
                    }
                    collector = net::remote_collector(frontend_b.port());
                    id = migrated_id.load(std::memory_order_acquire);
                    on_target = true;  // retry the same bin on the target
                }
                if (s == 0 && i + 1 == k_migrate_at) {
                    migration_armed.store(true, std::memory_order_release);
                }
            }
            try {
                collector.flush(id);
            } catch (const net::remote_error&) {
                // Stream 0's flush can race the detach (a producer that
                // never needed to re-point); the coordinator re-flushes
                // it on the target below.
                ASSERT_EQ(s, 0u);
            }
        });
    }

    {  // the migration coordinator, concurrent with the producers
        while (!migration_armed.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }
        net::remote_collector source(frontend_a.port());
        net::remote_collector target(frontend_b.port());
        migrated_id.store(net::migrate_stream(source, ids[0], target),
                          std::memory_order_release);
        migration_done.store(true, std::memory_order_release);
    }
    for (std::thread& t : producers) t.join();
    // Definitive flush of the migrated stream on the target: its
    // producer may have flushed on the source side of the race.
    server_b.flush_stream(migrated_id.load(std::memory_order_acquire));

    // Single-process shadow run: same streams, same bins, same order.
    stream_server shadow({.threads = 0});
    for (std::size_t s = 0; s < k_streams; ++s) {
        const stream_id sid = shadow.open_stream(tracking_config(100 + s));
        for (std::size_t i = 0; i < k_bins; ++i) {
            ASSERT_TRUE(shadow.ingest(sid, synthetic_bin(k_dim, s * 100000 + i)).ok());
        }
        shadow.flush_stream(sid);

        const std::string expected = local_record(shadow, sid);
        std::string actual;
        if (s == 0) {
            net::remote_collector reader(frontend_b.port());
            actual = reader.snapshot(migrated_id.load(std::memory_order_acquire));
        } else {
            net::remote_collector reader(frontend_a.port());
            actual = reader.snapshot(ids[s]);
        }
        EXPECT_EQ(actual, expected) << "stream " << s << " digest mismatch";

        // Conservation held across the move: every bin accepted exactly
        // once, none rejected, none left pending after the flush.
        const ingest_stats stats = s == 0
            ? server_b.ingest_statistics(migrated_id.load(std::memory_order_acquire))
            : server_a.ingest_statistics(ids[s]);
        EXPECT_EQ(stats.accepted, k_bins) << s;
        EXPECT_EQ(stats.applied, k_bins) << s;
        EXPECT_EQ(stats.dropped, 0u) << s;
        EXPECT_EQ(stats.pending, 0u) << s;
        EXPECT_EQ(stats.accepted, stats.applied + stats.dropped + stats.pending) << s;
    }

    frontend_a.stop();
    frontend_b.stop();
}

}  // namespace
}  // namespace netdiag
