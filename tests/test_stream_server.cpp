// The sharded multi-stream serving front-end: single-stream parity with
// standalone detectors for every refit mode and pool size, deterministic
// many-stream stress under a small pool, batches of blocking refits
// sharded over the pool, snapshot_all -> restore_all -> replay exactness,
// migration parity, and per-stream isolation of a stalled record sink.
// Every stream is fed through the one ingest edge; results are read from
// the stream's sink.
#include "serve/stream_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "measurement/link_loads.h"
#include "net/migration.h"
#include "subspace/online.h"
#include "topology/builders.h"
#include "topology/routing.h"

namespace netdiag {
namespace {

void expect_same_detection(const detection_result& want, const detection_result& got,
                           const std::string& context) {
    ASSERT_EQ(got.anomalous, want.anomalous) << context;
    ASSERT_EQ(got.spe, want.spe) << context;
    ASSERT_EQ(got.threshold, want.threshold) << context;
}

// Captures (sequence, result) pairs delivered by the stream's drainer.
// Written only by the single active drainer; read after flush_stream.
struct sink_capture {
    std::vector<std::pair<std::uint64_t, detection_result>> results;
    ingest_sink fn() {
        return [this](std::uint64_t seq, const detection_result& r) {
            results.emplace_back(seq, r);
        };
    }
};

// Ingests one bin, applies it, and returns what the stream's sink saw:
// the one-bin round trip the parity checks below are built from.
detection_result apply_one(stream_server& server, stream_id id, const sink_capture& capture,
                           std::span<const double> y) {
    const std::size_t before = capture.results.size();
    EXPECT_TRUE(server.ingest(id, y).ok());
    server.flush_stream(id);
    EXPECT_EQ(capture.results.size(), before + 1);
    return capture.results.empty() ? detection_result{} : capture.results.back().second;
}

// Abilene link loads with a diurnal cycle: enough texture for stable PCA
// models at small window sizes. Every test slices bootstraps and stream
// bins out of y_; overlapping slices give each stream a distinct model.
class StreamServerFixture : public ::testing::Test {
protected:
    static constexpr std::size_t k_boot = 60;  // bootstrap rows per stream

    void SetUp() override {
        topo_ = make_abilene();
        routing_ = build_routing(topo_);
        const std::size_t n = routing_.flow_count();
        const std::size_t t_total = 420;

        std::mt19937_64 rng(40417);
        std::normal_distribution<double> gauss(0.0, 1.0);
        matrix x(n, t_total, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            const double mean = 1e6 * (1.0 + static_cast<double>(j % 13));
            for (std::size_t t = 0; t < t_total; ++t) {
                const double diurnal =
                    1.0 + 0.4 * std::sin(2.0 * 3.14159265 * static_cast<double>(t) / 144.0);
                x(j, t) = std::max(0.0, mean * diurnal + 0.03 * mean * gauss(rng));
            }
        }
        y_ = link_loads_from_flows(routing_.a, x);
    }

    matrix bootstrap_slice(std::size_t first_row, std::size_t rows = k_boot) const {
        matrix out(rows, y_.cols());
        for (std::size_t r = 0; r < rows; ++r) out.set_row(r, y_.row(first_row + r));
        return out;
    }

    // The refit window equals the bootstrap length.
    streaming_config diagnoser_config(refit_mode mode, std::size_t window = k_boot) const {
        streaming_config cfg;
        cfg.window = window;
        cfg.refit_interval = 9;
        cfg.swap_horizon = 4;
        cfg.mode = mode;
        return cfg;
    }

    stream_open_config open_config(stream_kind kind, std::size_t boot_offset,
                                   refit_mode mode = refit_mode::deferred,
                                   std::size_t boot_rows = k_boot) const {
        stream_open_config cfg;
        cfg.kind = kind;
        cfg.bootstrap_y = bootstrap_slice(boot_offset, boot_rows);
        if (kind == stream_kind::diagnoser) {
            cfg.a = routing_.a;
            cfg.streaming = diagnoser_config(mode, boot_rows);
        } else {
            cfg.max_rank = 8;
        }
        return cfg;
    }

    // open_config with the stream's results delivered to `capture`.
    stream_id open_captured(stream_server& server, sink_capture& capture, stream_kind kind,
                            std::size_t boot_offset, refit_mode mode = refit_mode::deferred) const {
        stream_open_config cfg = open_config(kind, boot_offset, mode);
        cfg.ingest.sink = capture.fn();
        return server.open_stream(std::move(cfg));
    }

    // Standalone (no server, no pool) twin of open_config: the parity
    // reference every server stream is compared against bit-for-bit.
    std::unique_ptr<stream_detector> standalone(stream_kind kind, std::size_t boot_offset,
                                                refit_mode mode = refit_mode::deferred,
                                                std::size_t boot_rows = k_boot) const {
        const matrix boot = bootstrap_slice(boot_offset, boot_rows);
        if (kind == stream_kind::diagnoser) {
            return std::make_unique<streaming_diagnoser>(boot, routing_.a,
                                                         diagnoser_config(mode, boot_rows));
        }
        return std::make_unique<tracking_detector>(boot, 8);
    }

    std::string temp_dir(const char* name) const {
        return (std::filesystem::path(::testing::TempDir()) / name).string();
    }

    topology topo_{"unset"};
    routing_result routing_;
    matrix y_;
};

// ---------------------------------------------------------------------------
// Single-stream parity: the server must be a transparent wrapper.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, DiagnoserParityForEveryRefitModeAndPoolSize) {
    for (const refit_mode mode : {refit_mode::blocking, refit_mode::deferred}) {
        const auto reference = standalone(stream_kind::diagnoser, 0, mode);

        std::vector<detection_result> expected;
        for (std::size_t r = k_boot; r < k_boot + 40; ++r) {
            expected.push_back(reference->push_bin(y_.row(r)));
        }

        for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
            stream_server server({.threads = threads});
            sink_capture capture;
            const stream_id id = open_captured(server, capture, stream_kind::diagnoser, 0, mode);
            // Runs of 1..4 bins through ingest_batch: a batch takes
            // consecutive sequences, so the run boundaries must not show.
            for (std::size_t r = k_boot, run = 1; r < k_boot + 40; r += run, run = run % 4 + 1) {
                std::vector<std::span<const double>> bins;
                for (std::size_t k = r; k < std::min(r + run, k_boot + 40); ++k) {
                    bins.push_back(y_.row(k));
                }
                const ingest_result res = server.ingest_batch(id, bins);
                ASSERT_TRUE(res.ok());
                ASSERT_EQ(res.sequence, r - k_boot);
            }
            server.flush_stream(id);
            ASSERT_EQ(capture.results.size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                ASSERT_EQ(capture.results[i].first, i);
                expect_same_detection(expected[i], capture.results[i].second,
                                      "mode " + std::to_string(static_cast<int>(mode)) +
                                          " threads " + std::to_string(threads) + " bin " +
                                          std::to_string(i));
            }
            EXPECT_EQ(server.stats(id).epoch, reference->model_epoch())
                << "threads " << threads;
            EXPECT_EQ(server.stats(id).alarms, reference->alarm_count())
                << "threads " << threads;
        }
    }
}

TEST_F(StreamServerFixture, TrackingAndTrackerParityAcrossPoolSizes) {
    // Verdicts match the standalone tracking detector, and the whole
    // tracker state underneath -- axes, spectrum, running mean, threshold
    // -- lands bit-identical at every pool size: the served records are
    // byte-for-byte the no-pool server's once re-homed on a no-pool server
    // (pool wiring is runtime state, not part of the record).
    const auto reference = standalone(stream_kind::tracking, 5);
    std::vector<detection_result> expected;
    for (std::size_t r = k_boot + 5; r < k_boot + 45; ++r) {
        expected.push_back(reference->push_bin(y_.row(r)));
    }

    std::string no_pool_record;
    for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
        stream_server server({.threads = threads});
        sink_capture capture;
        stream_open_config cfg = open_config(stream_kind::tracking, 5);
        cfg.ingest.sink = capture.fn();
        const stream_id id = server.open_stream(std::move(cfg));
        const std::string context = "threads " + std::to_string(threads);
        for (std::size_t r = k_boot + 5; r < k_boot + 45; ++r) {
            expect_same_detection(expected[r - k_boot - 5],
                                  apply_one(server, id, capture, y_.row(r)),
                                  context + " bin " + std::to_string(r));
        }
        server.drain_all();
        EXPECT_EQ(server.stats(id).epoch, reference->model_epoch()) << context;

        std::ostringstream record(std::ios::binary);
        server.snapshot_stream(id, record);
        stream_server rehomed({.threads = 0});
        const stream_id copy = rehomed.restore_stream(std::move(record).str());
        std::ostringstream normalized(std::ios::binary);
        rehomed.snapshot_stream(copy, normalized);
        if (threads == 0) {
            no_pool_record = std::move(normalized).str();
        } else {
            EXPECT_EQ(std::move(normalized).str(), no_pool_record) << context;
        }
    }
}

// ---------------------------------------------------------------------------
// Blocking refits sharded over the pool from caller drains.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, BlockingModeStreamsInPooledBatchesStayBitIdentical) {
    // Caller drains apply ingest_batch runs, so a blocking-mode refit that
    // fires inside one shards its fit over the server's pool from the
    // ingesting thread; the sharded fit must stay bit-identical to the
    // standalone serial detector and every drain must complete. Two
    // blocking streams and a tracking stream share the pool, repeatedly
    // crossing the refit_interval (9) during the run. The blocking
    // streams' 264-row windows span two 256-row covariance blocks, so
    // their refits really shard.
    constexpr std::size_t k_wide = 264;
    const auto ref_a = standalone(stream_kind::diagnoser, 0, refit_mode::blocking, k_wide);
    const auto ref_b = standalone(stream_kind::diagnoser, 30, refit_mode::blocking, k_wide);
    const auto ref_c = standalone(stream_kind::tracking, 15);
    std::vector<detection_result> want_a, want_b, want_c;
    for (std::size_t r = 0; r < 30; ++r) {
        want_a.push_back(ref_a->push_bin(y_.row(k_wide + r)));
        want_b.push_back(ref_b->push_bin(y_.row(k_wide + 30 + r)));
        want_c.push_back(ref_c->push_bin(y_.row(k_boot + 15 + r)));
    }

    for (const std::size_t threads : {2u, 8u}) {
        stream_server server({.threads = threads});
        sink_capture cap_a, cap_b, cap_c;
        const auto open_with_sink = [&](sink_capture& capture, stream_kind kind,
                                        std::size_t boot, refit_mode mode,
                                        std::size_t boot_rows) {
            stream_open_config cfg = open_config(kind, boot, mode, boot_rows);
            cfg.ingest.sink = capture.fn();
            return server.open_stream(std::move(cfg));
        };
        const stream_id a =
            open_with_sink(cap_a, stream_kind::diagnoser, 0, refit_mode::blocking, k_wide);
        const stream_id b =
            open_with_sink(cap_b, stream_kind::diagnoser, 30, refit_mode::blocking, k_wide);
        const stream_id c =
            open_with_sink(cap_c, stream_kind::tracking, 15, refit_mode::deferred, k_boot);

        for (std::size_t r = 0; r < 30; r += 3) {
            for (const auto& [id, first] : {std::pair{a, k_wide}, std::pair{b, k_wide + 30},
                                            std::pair{c, k_boot + 15}}) {
                const std::vector<std::span<const double>> bins = {
                    y_.row(first + r), y_.row(first + r + 1), y_.row(first + r + 2)};
                ASSERT_TRUE(server.ingest_batch(id, bins).ok());
            }
        }
        server.flush_all();
        server.drain_all();

        const std::string context = "threads " + std::to_string(threads);
        for (const auto& [capture, want, name] :
             {std::tuple{&cap_a, &want_a, "a"}, std::tuple{&cap_b, &want_b, "b"},
              std::tuple{&cap_c, &want_c, "c"}}) {
            ASSERT_EQ(capture->results.size(), want->size()) << context << " " << name;
            for (std::size_t r = 0; r < want->size(); ++r) {
                expect_same_detection((*want)[r], capture->results[r].second,
                                      context + " " + name + " bin " + std::to_string(r));
            }
        }
        EXPECT_EQ(server.stats(a).epoch, ref_a->model_epoch()) << context;
        EXPECT_EQ(server.stats(b).epoch, ref_b->model_epoch()) << context;
        EXPECT_EQ(server.stats(a).alarms, ref_a->alarm_count()) << context;
    }
}

// ---------------------------------------------------------------------------
// Deterministic N-stream stress: 32 streams of mixed kinds over a small
// pool, interleaved single ingests / multi-stream rounds / close / open
// driven by a fixed seed, every output compared bit-for-bit against
// standalone shadows.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, ThirtyTwoStreamSeededStressMatchesShadows) {
    constexpr std::size_t k_streams = 32;
    stream_server server({.threads = 2});

    struct shadow {
        stream_id id = 0;
        std::unique_ptr<stream_detector> twin;
        std::unique_ptr<sink_capture> capture;
        std::size_t cursor = 0;            // next y_ row for this stream
        std::vector<std::size_t> pending;  // rows ingested, not yet verified
        std::size_t verified = 0;          // capture results checked so far
    };
    std::vector<shadow> live;

    std::size_t next_boot = 0;
    const auto spawn = [&](stream_kind kind) {
        const std::size_t boot = next_boot;
        next_boot = (next_boot + 7) % 150;
        shadow s;
        s.capture = std::make_unique<sink_capture>();
        s.id = open_captured(server, *s.capture, kind, boot);
        s.twin = standalone(kind, boot);
        s.cursor = boot + k_boot;
        live.push_back(std::move(s));
    };
    const auto ingest_next = [&](shadow& s) {
        const std::size_t row = s.cursor;
        s.cursor = row + 1 < y_.rows() ? row + 1 : k_boot;  // wrap, stay in range
        ASSERT_TRUE(server.ingest(s.id, y_.row(row)).ok());
        s.pending.push_back(row);
    };
    const auto verify = [&](shadow& s, const std::string& context) {
        ASSERT_EQ(s.capture->results.size(), s.verified + s.pending.size()) << context;
        for (const std::size_t row : s.pending) {
            expect_same_detection(s.twin->push_bin(y_.row(row)),
                                  s.capture->results[s.verified++].second, context);
        }
        s.pending.clear();
    };

    const stream_kind kinds[] = {stream_kind::diagnoser, stream_kind::tracking};
    for (std::size_t s = 0; s < k_streams; ++s) spawn(kinds[s % 2]);

    std::mt19937_64 rng(271828);
    for (std::size_t step = 0; step < 400; ++step) {
        const std::uint64_t roll = rng() % 100;
        const std::string context = "step " + std::to_string(step);
        if (roll < 55 && !live.empty()) {
            // One bin to one stream.
            shadow& s = live[rng() % live.size()];
            ingest_next(s);
            server.flush_stream(s.id);
            verify(s, context);
        } else if (roll < 85 && !live.empty()) {
            // A round across up to 8 streams (repeats allowed), applied by
            // one flush_all.
            const std::size_t round_streams = 1 + rng() % std::min<std::size_t>(8, live.size());
            std::vector<std::size_t> picks;
            for (std::size_t b = 0; b < round_streams; ++b) picks.push_back(rng() % live.size());
            for (const std::size_t p : picks) ingest_next(live[p]);
            server.flush_all();
            for (const std::size_t p : picks) verify(live[p], context);
        } else if (roll < 92 && live.size() > 4) {
            // Close one stream; the remaining streams must be unperturbed
            // (their shadows keep verifying that on every later bin).
            const std::size_t victim = rng() % live.size();
            server.close_stream(live[victim].id);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        } else {
            spawn(kinds[rng() % 2]);
        }
    }

    server.drain_all();
    for (shadow& s : live) {
        s.twin->drain();
        const stream_server::stream_stats st = server.stats(s.id);
        EXPECT_EQ(st.processed, s.twin->processed());
        EXPECT_EQ(st.alarms, s.twin->alarm_count());
        EXPECT_EQ(st.epoch, s.twin->model_epoch());
    }
    EXPECT_EQ(server.stream_count(), live.size());
}

// ---------------------------------------------------------------------------
// Concurrent callers: several feeder threads over disjoint stream sets
// (plus a churn thread opening and closing its own streams) must leave
// every stream's output bit-identical to a standalone run. This is the
// server-side data-race surface the ThreadSanitizer CI job exercises.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, ConcurrentPushersOnDisjointStreamsMatchShadows) {
    constexpr std::size_t k_threads = 4;
    constexpr std::size_t k_per_thread = 2;
    constexpr std::size_t k_bins = 40;
    stream_server server({.threads = 2});

    struct owned_stream {
        stream_id id = 0;
        stream_kind kind = stream_kind::tracking;
        std::size_t boot = 0;
        std::unique_ptr<sink_capture> capture;
    };
    std::vector<std::vector<owned_stream>> owned(k_threads);
    const stream_kind kinds[] = {stream_kind::diagnoser, stream_kind::tracking};
    for (std::size_t t = 0; t < k_threads; ++t) {
        for (std::size_t s = 0; s < k_per_thread; ++s) {
            const std::size_t n = t * k_per_thread + s;
            owned_stream os{0, kinds[n % 2], n * 9, std::make_unique<sink_capture>()};
            os.id = open_captured(server, *os.capture, os.kind, os.boot);
            owned[t].push_back(std::move(os));
        }
    }

    // Each feeder alternates a round over all its streams applied by one
    // flush each, and ingest + flush per stream.
    std::vector<std::thread> feeders;
    for (std::size_t t = 0; t < k_threads; ++t) {
        feeders.emplace_back([&, t] {
            for (std::size_t b = 0; b < k_bins; ++b) {
                for (const owned_stream& os : owned[t]) {
                    EXPECT_TRUE(server.ingest(os.id, y_.row(os.boot + k_boot + b)).ok());
                    if (b % 3 != 0) server.flush_stream(os.id);
                }
                if (b % 3 == 0) {
                    for (const owned_stream& os : owned[t]) server.flush_stream(os.id);
                }
            }
        });
    }
    // Churn thread: opens its own short-lived streams, ingests, closes.
    // Must never perturb the feeder threads' streams.
    std::thread churn([&] {
        for (std::size_t round = 0; round < 6; ++round) {
            const stream_id id = server.open_stream(open_config(stream_kind::tracking, 100));
            for (std::size_t b = 0; b < 5; ++b) {
                EXPECT_TRUE(server.ingest(id, y_.row(100 + k_boot + b)).ok());
            }
            server.close_stream(id);
        }
    });
    for (std::thread& th : feeders) th.join();
    churn.join();
    server.drain_all();

    // Verify per-stream sequences against standalone shadows.
    for (std::size_t t = 0; t < k_threads; ++t) {
        for (const owned_stream& os : owned[t]) {
            const auto twin = standalone(os.kind, os.boot);
            ASSERT_EQ(os.capture->results.size(), k_bins);
            for (std::size_t b = 0; b < k_bins; ++b) {
                expect_same_detection(twin->push_bin(y_.row(os.boot + k_boot + b)),
                                      os.capture->results[b].second,
                                      "thread " + std::to_string(t) + " bin " + std::to_string(b) +
                                          " stream " + std::to_string(os.id));
            }
            EXPECT_EQ(server.stats(os.id).epoch, twin->model_epoch());
        }
    }
    EXPECT_EQ(server.stream_count(), k_threads * k_per_thread);
}

// ---------------------------------------------------------------------------
// snapshot_all -> restore_all -> replay.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, SnapshotAllRestoreAllReplaysExactlyWithRefitInFlight) {
    // One stream per (kind, refit mode), snapshotted at every pool size and
    // restored into a server with a *different* pool size: pool wiring is
    // runtime, not state, and the replay must still be bit-identical.
    for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
        const std::string dir = temp_dir("server_snapshot");
        const std::string context = "threads " + std::to_string(threads);
        stream_server original({.threads = threads});
        std::vector<std::unique_ptr<sink_capture>> original_caps;
        std::vector<stream_id> ids;
        const auto open_one = [&](stream_kind kind, std::size_t boot, refit_mode mode) {
            original_caps.push_back(std::make_unique<sink_capture>());
            ids.push_back(open_captured(original, *original_caps.back(), kind, boot, mode));
        };
        open_one(stream_kind::diagnoser, 0, refit_mode::deferred);
        open_one(stream_kind::diagnoser, 20, refit_mode::blocking);
        open_one(stream_kind::tracking, 40, refit_mode::deferred);

        // Apply until the deferred diagnoser has a refit pending but not
        // yet swapped (trigger at 9, swap at 13): pendingness must survive
        // the round trip.
        std::vector<std::size_t> cursors = {k_boot, k_boot + 20, k_boot + 40};
        for (std::size_t r = 0; r < 11; ++r) {
            for (std::size_t s = 0; s < ids.size(); ++s) {
                (void)apply_one(original, ids[s], *original_caps[s], y_.row(cursors[s]++));
            }
        }
        {
            const auto& diag = dynamic_cast<const streaming_diagnoser&>(original.stream(ids[0]));
            ASSERT_TRUE(diag.refit_pending()) << context;
        }

        original.snapshot_all(dir);

        // Sinks are runtime wiring too: re-attach them after the restore.
        stream_server restored({.threads = 8 - threads});
        restored.restore_all(dir);
        ASSERT_EQ(restored.stream_count(), 3u);
        ASSERT_EQ(restored.stream_ids(), original.stream_ids());
        std::vector<std::unique_ptr<sink_capture>> restored_caps;
        for (const stream_id id : ids) {
            EXPECT_EQ(restored.stats(id).processed, original.stats(id).processed) << context;
            EXPECT_EQ(restored.stats(id).epoch, original.stats(id).epoch) << context;
            restored_caps.push_back(std::make_unique<sink_capture>());
            restored.set_ingest_sink(id, restored_caps.back()->fn());
        }

        for (std::size_t r = 0; r < 30; ++r) {
            for (std::size_t s = 0; s < ids.size(); ++s) {
                const std::size_t row = cursors[s]++;
                const detection_result want =
                    apply_one(original, ids[s], *original_caps[s], y_.row(row));
                const detection_result got =
                    apply_one(restored, ids[s], *restored_caps[s], y_.row(row));
                expect_same_detection(want, got,
                                      context + " stream " + std::to_string(s) + " replay bin " +
                                          std::to_string(r));
                ASSERT_EQ(restored.stats(ids[s]).epoch, original.stats(ids[s]).epoch)
                    << context << " stream " << s << " bin " << r;
            }
        }
        // The diagnoser's pending refit must have swapped during the replay.
        EXPECT_GE(restored.stats(ids[0]).epoch, 1u) << context;

        // New streams opened after a restore must not collide with restored
        // ids.
        const stream_id fresh = restored.open_stream(open_config(stream_kind::tracking, 80));
        for (const stream_id id : ids) EXPECT_NE(fresh, id);

        std::filesystem::remove_all(dir);
    }
}

TEST_F(StreamServerFixture, RestoreAllRequiresAnEmptyServer) {
    const std::string dir = temp_dir("server_snapshot_nonempty");
    stream_server a({.threads = 0});
    (void)a.open_stream(open_config(stream_kind::tracking, 0));
    a.snapshot_all(dir);

    stream_server b({.threads = 0});
    (void)b.open_stream(open_config(stream_kind::tracking, 10));
    EXPECT_THROW(b.restore_all(dir), std::logic_error);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Lifecycle and error handling.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, UnknownStreamIdThrowsEverywhere) {
    stream_server server({.threads = 0});
    EXPECT_THROW(server.flush_stream(42), std::invalid_argument);
    EXPECT_THROW(server.close_stream(42), std::invalid_argument);
    EXPECT_THROW(server.stats(42), std::invalid_argument);
    EXPECT_THROW(server.stream(42), std::invalid_argument);
    EXPECT_THROW((void)server.ingest_statistics(42), std::invalid_argument);
    std::ostringstream record(std::ios::binary);
    EXPECT_THROW(server.snapshot_stream(42, record), std::invalid_argument);
    EXPECT_THROW(server.detach_stream(42, record), std::invalid_argument);
    // The ingest edge reports codes, not exceptions.
    EXPECT_EQ(server.ingest(42, y_.row(0)).error, ingest_error::unknown_stream);
}

TEST_F(StreamServerFixture, StreamIdsAreNeverReused) {
    stream_server server({.threads = 0});
    const stream_id a = server.open_stream(open_config(stream_kind::tracking, 0));
    server.close_stream(a);
    const stream_id b = server.open_stream(open_config(stream_kind::tracking, 0));
    EXPECT_NE(a, b);
    EXPECT_EQ(server.stream_count(), 1u);
}

// ---------------------------------------------------------------------------
// A stalled record sink stalls only its own stream: snapshot_stream and
// detach_stream write the detector straight into the caller's stream
// under that stream's quiesce alone, so while the write is parked the
// server keeps serving every other stream.
// ---------------------------------------------------------------------------

// A streambuf with no buffer of its own whose writes park until the test
// opens the gate: a record sink stalled mid-record (a slow disk, a peer
// that stopped reading).
class gated_streambuf : public std::streambuf {
public:
    bool entered() const { return entered_.load(); }
    void open() { open_.store(true); }
    const std::string& bytes() const { return bytes_; }

protected:
    int_type overflow(int_type ch) override {
        gate();
        if (!traits_type::eq_int_type(ch, traits_type::eof())) {
            bytes_.push_back(traits_type::to_char_type(ch));
        }
        return traits_type::not_eof(ch);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
        gate();
        bytes_.append(s, static_cast<std::size_t>(n));
        return n;
    }

private:
    void gate() {
        entered_.store(true);
        while (!open_.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::atomic<bool> entered_{false};
    std::atomic<bool> open_{false};
    std::string bytes_;
};

TEST_F(StreamServerFixture, StalledRecordSinkStallsOnlyItsOwnStream) {
    for (const bool detach : {false, true}) {
        const std::string context = detach ? "detach_stream" : "snapshot_stream";
        stream_server server({.threads = 2});
        sink_capture other_capture;
        const stream_id stalled = server.open_stream(open_config(stream_kind::diagnoser, 0));
        const stream_id other = open_captured(server, other_capture, stream_kind::diagnoser, 30);
        for (std::size_t r = 0; r < 11; ++r) {
            ASSERT_TRUE(server.ingest(stalled, y_.row(k_boot + r)).ok());
        }
        server.flush_stream(stalled);

        gated_streambuf gate;
        std::ostream out(&gate);
        std::thread writer([&] {
            if (detach) {
                server.detach_stream(stalled, out);
            } else {
                server.snapshot_stream(stalled, out);
            }
        });
        while (!gate.entered()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

        // The writer is parked inside the record. Serve the other stream
        // from a second thread so a regression (a server-wide lock held
        // across the write) fails on a deadline instead of hanging.
        std::atomic<bool> done{false};
        std::thread feeder([&] {
            for (std::size_t r = 0; r < 20; ++r) {
                if (!server.ingest(other, y_.row(k_boot + 30 + r)).ok()) break;
                server.flush_stream(other);
            }
            (void)server.ingest_statistics(other);
            done.store(true);
        });
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (!done.load() && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_TRUE(done.load()) << context << ": another stream stalled behind the record";
        gate.open();
        writer.join();
        feeder.join();

        const auto twin = standalone(stream_kind::diagnoser, 30);
        ASSERT_EQ(other_capture.results.size(), 20u) << context;
        for (std::size_t r = 0; r < 20; ++r) {
            expect_same_detection(twin->push_bin(y_.row(k_boot + 30 + r)),
                                  other_capture.results[r].second,
                                  context + " bin " + std::to_string(r));
        }
        EXPECT_EQ(server.ingest_statistics(other).applied, 20u) << context;

        // The parked record came out whole once released.
        stream_server target({.threads = 0});
        const stream_id restored = target.restore_stream(gate.bytes());
        EXPECT_EQ(target.stats(restored).processed, 11u) << context;
        EXPECT_EQ(server.stream_count(), detach ? 1u : 2u) << context;
    }
}

// ---------------------------------------------------------------------------
// Stream migration: detach_stream -> restore_stream moves one live
// stream between servers. The bar is the same parity bar the server
// itself is held to -- the migrated stream's output is bit-identical to
// an unmigrated standalone shadow fed the same bins, for every refit
// mode and pool size, including mid-refit and with unapplied residue.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, MigrationParityForEveryRefitModeAndPoolSize) {
    const std::pair<stream_kind, refit_mode> legs[] = {
        {stream_kind::diagnoser, refit_mode::blocking},
        {stream_kind::diagnoser, refit_mode::deferred},
        {stream_kind::tracking, refit_mode::deferred},
    };
    for (const auto& [kind, mode] : legs) {
        const auto reference = standalone(kind, 0, mode);

        std::vector<detection_result> expected;
        for (std::size_t r = k_boot; r < k_boot + 40; ++r) {
            expected.push_back(reference->push_bin(y_.row(r)));
        }

        for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
            stream_server source({.threads = threads});
            stream_server target({.threads = threads});
            sink_capture before, after;
            const stream_id id = open_captured(source, before, kind, 0, mode);

            const std::string context = "kind " + std::to_string(static_cast<int>(kind)) +
                                        " mode " + std::to_string(static_cast<int>(mode)) +
                                        " threads " + std::to_string(threads);
            for (std::size_t r = k_boot; r < k_boot + 20; ++r) {
                expect_same_detection(expected[r - k_boot],
                                      apply_one(source, id, before, y_.row(r)),
                                      context + " pre-move bin " + std::to_string(r));
            }

            const stream_id moved = net::migrate_stream(source, id, target);
            EXPECT_EQ(source.ingest(id, y_.row(k_boot)).error, ingest_error::unknown_stream)
                << context << ": the source must forget a detached stream";
            target.set_ingest_sink(moved, after.fn());

            for (std::size_t r = k_boot + 20; r < k_boot + 40; ++r) {
                expect_same_detection(expected[r - k_boot],
                                      apply_one(target, moved, after, y_.row(r)),
                                      context + " post-move bin " + std::to_string(r));
            }
            target.drain_all();
            EXPECT_EQ(target.stats(moved).epoch, reference->model_epoch()) << context;
            EXPECT_EQ(target.stats(moved).alarms, reference->alarm_count()) << context;
            EXPECT_EQ(target.stats(moved).processed, reference->processed()) << context;
        }
    }
}

TEST_F(StreamServerFixture, MigrationMidRefitKeepsThePendingRefitPending) {
    // 11 bins with interval 9 / horizon 4: a refit has been triggered
    // (bin 9) but not swapped (bin 13) -- the migration happens with the
    // refit in flight, and pendingness must survive the move.
    const auto reference = standalone(stream_kind::diagnoser, 0);
    stream_server source({.threads = 2});
    stream_server target({.threads = 1});  // pool wiring is runtime, not state
    sink_capture before, after;
    const stream_id id = open_captured(source, before, stream_kind::diagnoser, 0);

    std::size_t cursor = k_boot;
    for (std::size_t r = 0; r < 11; ++r) {
        const std::size_t row = cursor++;
        expect_same_detection(reference->push_bin(y_.row(row)),
                              apply_one(source, id, before, y_.row(row)),
                              "pre-move bin " + std::to_string(r));
    }
    ASSERT_TRUE(
        dynamic_cast<const streaming_diagnoser&>(source.stream(id)).refit_pending());

    const stream_id moved = net::migrate_stream(source, id, target);
    EXPECT_TRUE(
        dynamic_cast<const streaming_diagnoser&>(target.stream(moved)).refit_pending());
    target.set_ingest_sink(moved, after.fn());

    // The pending refit must swap at the same bin the shadow's does, and
    // everything after stays bit-identical.
    for (std::size_t r = 0; r < 30; ++r) {
        const std::size_t row = cursor++;
        expect_same_detection(reference->push_bin(y_.row(row)),
                              apply_one(target, moved, after, y_.row(row)),
                              "post-move bin " + std::to_string(r));
        ASSERT_EQ(target.stats(moved).epoch, reference->model_epoch()) << "bin " << r;
    }
    EXPECT_GE(target.stats(moved).epoch, 1u);
}

TEST_F(StreamServerFixture, MigrationCarriesUnappliedInboxResidue) {
    // auto_drain off: ingested bins accumulate as pending residue. The
    // detach must snapshot them WITHOUT applying them, and the restore
    // must re-enqueue them under their original sequence numbers.
    stream_open_config cfg = open_config(stream_kind::tracking, 10);
    cfg.ingest.auto_drain = false;
    stream_server source({.threads = 0});
    stream_server target({.threads = 0});
    const stream_id id = source.open_stream(std::move(cfg));

    constexpr std::size_t k_residue = 7;
    for (std::size_t r = 0; r < k_residue; ++r) {
        ASSERT_TRUE(source.ingest(id, y_.row(k_boot + 10 + r)).ok());
    }
    {
        const ingest_stats before = source.ingest_statistics(id);
        ASSERT_EQ(before.pending, k_residue);
        ASSERT_EQ(before.applied, 0u);
    }

    const stream_id moved = net::migrate_stream(source, id, target);

    // Conservation across the move, residue intact and still unapplied.
    const ingest_stats after = target.ingest_statistics(moved);
    EXPECT_EQ(after.accepted, k_residue);
    EXPECT_EQ(after.applied, 0u);
    EXPECT_EQ(after.dropped, 0u);
    EXPECT_EQ(after.pending, k_residue);
    EXPECT_EQ(after.accepted, after.applied + after.dropped + after.pending);
    EXPECT_EQ(target.stats(moved).processed, 0u);

    // Apply the residue on the target and compare the final record to an
    // unmigrated shadow server fed the same bins: byte-identical.
    target.flush_stream(moved);
    stream_open_config shadow_cfg = open_config(stream_kind::tracking, 10);
    shadow_cfg.ingest.auto_drain = false;
    stream_server shadow({.threads = 0});
    const stream_id shadow_id = shadow.open_stream(std::move(shadow_cfg));
    for (std::size_t r = 0; r < k_residue; ++r) {
        ASSERT_TRUE(shadow.ingest(shadow_id, y_.row(k_boot + 10 + r)).ok());
    }
    shadow.flush_stream(shadow_id);

    std::ostringstream moved_rec(std::ios::binary), shadow_rec(std::ios::binary);
    target.snapshot_stream(moved, moved_rec, ckpt::encoding::interchange);
    shadow.snapshot_stream(shadow_id, shadow_rec, ckpt::encoding::interchange);
    EXPECT_EQ(std::move(moved_rec).str(), std::move(shadow_rec).str());
}

TEST_F(StreamServerFixture, ConcurrentIngestDuringDetachSeesOnlyCleanErrors) {
    // Producers hammering the stream while it is detached must see ok
    // until the quiesce, then stream_closed (mid-close) or unknown_stream
    // (post-removal) -- never an exception, never a silently lost bin:
    // every bin a producer was told was accepted must be accounted for in
    // the migrated record's counters.
    constexpr std::size_t k_producers = 4;
    constexpr std::size_t k_attempts = 400;
    stream_server source({.threads = 2});
    stream_server target({.threads = 0});
    const stream_id id = source.open_stream(open_config(stream_kind::tracking, 0));

    std::atomic<std::uint64_t> accepted_total{0};
    std::atomic<bool> bad_error{false};
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < k_producers; ++t) {
        producers.emplace_back([&, t] {
            for (std::size_t i = 0; i < k_attempts; ++i) {
                const std::size_t row = k_boot + ((t * 97 + i) % 200);
                const ingest_result r = source.ingest(id, y_.row(row));
                if (r.ok()) {
                    accepted_total.fetch_add(r.accepted, std::memory_order_relaxed);
                } else if (r.error != ingest_error::stream_closed &&
                           r.error != ingest_error::unknown_stream) {
                    bad_error.store(true, std::memory_order_relaxed);
                } else {
                    return;  // the detach hit; stop producing
                }
            }
        });
    }
    // Let the producers land some bins, then detach out from under them.
    while (accepted_total.load(std::memory_order_relaxed) < 32) {
        std::this_thread::yield();
    }
    std::ostringstream record(std::ios::binary);
    source.detach_stream(id, record);
    for (std::thread& t : producers) t.join();
    EXPECT_FALSE(bad_error.load()) << "a producer saw a non-migration error";

    // No silent drops: the record's accepted counter equals exactly the
    // bins producers were told were accepted, and conservation holds on
    // the restored stream before and after applying the residue.
    std::istringstream in(std::move(record).str(), std::ios::binary);
    const stream_id moved = target.restore_stream(in);
    const ingest_stats st = target.ingest_statistics(moved);
    EXPECT_EQ(st.accepted, accepted_total.load());
    EXPECT_EQ(st.accepted, st.applied + st.dropped + st.pending);
    target.flush_stream(moved);
    const ingest_stats drained = target.ingest_statistics(moved);
    EXPECT_EQ(drained.accepted, accepted_total.load());
    EXPECT_EQ(drained.pending, 0u);
    EXPECT_EQ(drained.accepted, drained.applied + drained.dropped);
    EXPECT_EQ(target.stats(moved).processed, drained.applied);
}

}  // namespace
}  // namespace netdiag
