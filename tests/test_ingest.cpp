// The multi-pusher ingest edge: the stream_server ingest()/ingest_batch()
// API, the inbox bound, backpressure, close/flush semantics, the
// N-producer parity stress (per-stream output bit-identical to a
// standalone single-pusher detector replayed in inbox sequence order, for
// every refit mode and pool size), refusal of non-finite bins, and the
// format-v3 checkpoint round trip with non-empty inbox residue. This
// binary runs under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "measurement/link_loads.h"
#include "measurement/stream_checkpoint.h"
#include "serve/stream_server.h"
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

// ---------------------------------------------------------------------------
// Server ingest fixture: Abilene link loads with a diurnal cycle, same
// texture as the stream_server tests.
// ---------------------------------------------------------------------------

class IngestFixture : public ::testing::Test {
protected:
    static constexpr std::size_t k_boot = 60;  // bootstrap rows per stream

    void SetUp() override {
        topo_ = make_abilene();
        routing_ = build_routing(topo_);
        const std::size_t n = routing_.flow_count();
        const std::size_t t_total = 420;

        std::mt19937_64 rng(52718);
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

    matrix bootstrap_slice(std::size_t first_row) const {
        matrix out(k_boot, y_.cols());
        for (std::size_t r = 0; r < k_boot; ++r) out.set_row(r, y_.row(first_row + r));
        return out;
    }

    streaming_config diagnoser_config(refit_mode mode) const {
        streaming_config cfg;
        cfg.window = k_boot;
        cfg.refit_interval = 9;
        cfg.swap_horizon = 4;
        cfg.mode = mode;
        // Pin the separation rank: the stress tests refit on windows
        // whose row interleaving is decided by the producer race, and
        // with a free 3-sigma rule an unlucky interleaving can classify
        // every axis normal (empty residual subspace -> the diagnoser's
        // identifier refuses to build). The concurrency contracts under
        // test are independent of the separation heuristic.
        cfg.separation.fixed_rank = 6;
        return cfg;
    }

    stream_open_config open_config(stream_kind kind, std::size_t boot_offset,
                                   refit_mode mode, ingest_options ingest) const {
        stream_open_config cfg;
        cfg.kind = kind;
        cfg.bootstrap_y = bootstrap_slice(boot_offset);
        if (kind == stream_kind::diagnoser) {
            cfg.a = routing_.a;
            cfg.streaming = diagnoser_config(mode);
        } else {
            cfg.max_rank = 8;
        }
        cfg.ingest = std::move(ingest);
        return cfg;
    }

    // Standalone (no server, no pool) twin: the parity reference an
    // ingest-fed stream is replayed against in sequence order.
    std::unique_ptr<stream_detector> standalone(stream_kind kind, std::size_t boot_offset,
                                                refit_mode mode = refit_mode::deferred) const {
        const matrix boot = bootstrap_slice(boot_offset);
        if (kind == stream_kind::diagnoser) {
            return std::make_unique<streaming_diagnoser>(boot, routing_.a, diagnoser_config(mode));
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

// Captures (sequence, result) pairs delivered by the drainer. Only ever
// written by the single active drainer (the role handoff orders the
// writes); read after the ingest edge is quiesced.
struct sink_capture {
    std::vector<std::pair<std::uint64_t, detection_result>> results;
    ingest_sink fn() {
        return [this](std::uint64_t seq, const detection_result& r) {
            results.emplace_back(seq, r);
        };
    }
};

// One (kind, refit mode) pair of the parity matrix; mode is ignored by
// tracking streams.
struct leg {
    stream_kind kind;
    refit_mode mode;
};
constexpr leg k_every_leg[] = {
    {stream_kind::diagnoser, refit_mode::blocking},
    {stream_kind::diagnoser, refit_mode::deferred},
    {stream_kind::tracking, refit_mode::deferred},
};

std::string leg_name(const leg& l) {
    return "kind " + std::to_string(static_cast<int>(l.kind)) + " mode " +
           std::to_string(static_cast<int>(l.mode));
}

// ---------------------------------------------------------------------------
// Single-producer parity: ingest is push with a sequence number.
// ---------------------------------------------------------------------------

TEST_F(IngestFixture, SingleProducerIngestMatchesPushForEveryRefitModeAndPoolSize) {
    for (const leg& l : k_every_leg) {
        const auto reference = standalone(l.kind, 0, l.mode);
        std::vector<detection_result> expected;
        for (std::size_t r = k_boot; r < k_boot + 40; ++r) {
            expected.push_back(reference->push_bin(y_.row(r)));
        }

        for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
            stream_server server({.threads = threads});
            sink_capture capture;
            ingest_options ingest;
            ingest.capacity = 64;
            ingest.sink = capture.fn();
            const stream_id id =
                server.open_stream(open_config(l.kind, 0, l.mode, std::move(ingest)));
            for (std::size_t r = k_boot; r < k_boot + 40; ++r) {
                const ingest_result res = server.ingest(id, y_.row(r));
                ASSERT_TRUE(res.ok());
                ASSERT_EQ(res.sequence, r - k_boot);
            }
            server.flush_stream(id);
            server.drain_all();
            ASSERT_EQ(capture.results.size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                ASSERT_EQ(capture.results[i].first, i);
                expect_same_detection(expected[i], capture.results[i].second,
                                      leg_name(l) + " threads " + std::to_string(threads) +
                                          " bin " + std::to_string(i));
            }
            const ingest_stats st = server.ingest_statistics(id);
            EXPECT_EQ(st.accepted, expected.size());
            EXPECT_EQ(st.applied, expected.size());
            EXPECT_EQ(st.pending, 0u);
            EXPECT_EQ(server.stats(id).alarms, reference->alarm_count());
            EXPECT_EQ(server.stats(id).epoch, reference->model_epoch());
        }
    }
}

// ---------------------------------------------------------------------------
// The acceptance-criterion stress: N >= 4 producers hammer one stream
// concurrently; the applied output must be bit-identical to a standalone
// single-pusher detector replaying the bins in inbox sequence order, for
// every (kind, refit mode) pair at pool sizes {0, 1, 2, 8}.
// ---------------------------------------------------------------------------

TEST_F(IngestFixture, FourProducerStressMatchesStandaloneReplayInSequenceOrder) {
    constexpr std::size_t k_producers = 4;
    constexpr std::size_t k_per_producer = 25;
    constexpr std::size_t k_total = k_producers * k_per_producer;

    for (const leg& l : k_every_leg) {
        for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
            stream_server server({.threads = threads});
            sink_capture capture;
            ingest_options ingest;
            ingest.capacity = 128;
            ingest.sink = capture.fn();
            const stream_id id =
                server.open_stream(open_config(l.kind, 0, l.mode, std::move(ingest)));

            // Each producer ingests a disjoint row slice and records the
            // sequence its rows were assigned.
            std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> seq_rows(
                k_producers);
            std::vector<std::thread> producers;
            for (std::size_t p = 0; p < k_producers; ++p) {
                producers.emplace_back([&, p] {
                    for (std::size_t i = 0; i < k_per_producer; ++i) {
                        const std::size_t row = k_boot + p * k_per_producer + i;
                        const ingest_result r = server.ingest(id, y_.row(row));
                        ASSERT_TRUE(r.ok()) << "producer " << p << " bin " << i;
                        seq_rows[p].emplace_back(r.sequence, row);
                    }
                });
            }
            for (std::thread& t : producers) t.join();
            server.flush_stream(id);
            server.drain_all();

            // Reassemble the global sequence order: sequences must be a
            // gapless permutation of 0..k_total-1 with per-producer rows
            // in their ingest order.
            std::vector<std::size_t> row_of(k_total, 0);
            std::vector<bool> seen(k_total, false);
            for (std::size_t p = 0; p < k_producers; ++p) {
                std::uint64_t last = 0;
                bool first = true;
                for (const auto& [seq, row] : seq_rows[p]) {
                    ASSERT_LT(seq, k_total);
                    ASSERT_FALSE(seen[seq]) << "duplicate sequence " << seq;
                    seen[seq] = true;
                    row_of[seq] = row;
                    if (!first) {
                        ASSERT_GT(seq, last) << "producer order violated";
                    }
                    first = false;
                    last = seq;
                }
            }

            // Conservation and ordering of the applied output.
            const ingest_stats st = server.ingest_statistics(id);
            ASSERT_EQ(st.accepted, k_total);
            ASSERT_EQ(st.applied, k_total);
            ASSERT_EQ(st.dropped, 0u);
            ASSERT_EQ(st.pending, 0u);
            ASSERT_EQ(capture.results.size(), k_total);
            for (std::size_t i = 0; i < k_total; ++i) {
                ASSERT_EQ(capture.results[i].first, i) << "sink out of sequence order";
            }
            ASSERT_EQ(server.stats(id).processed, k_total);

            // Bit-exact replay against a standalone single-pusher twin fed
            // in sequence order.
            const auto twin = standalone(l.kind, 0, l.mode);
            std::size_t alarms = 0;
            for (std::size_t i = 0; i < k_total; ++i) {
                const detection_result want = twin->push_bin(y_.row(row_of[i]));
                if (want.anomalous) ++alarms;
                expect_same_detection(want, capture.results[i].second,
                                      leg_name(l) + " threads " + std::to_string(threads) +
                                          " seq " + std::to_string(i));
            }
            twin->drain();
            EXPECT_EQ(server.stats(id).alarms, twin->alarm_count());
            EXPECT_EQ(server.stats(id).epoch, twin->model_epoch());
            EXPECT_EQ(server.stats(id).alarms, alarms);
        }
    }
}

// Several streams -- one per (kind, refit mode) pair -- fed by several
// producers each, over one shared pool of every size: the per-stream drain
// roles must stay independent (no cross-stream perturbation) while every
// stream replays bit-exactly.
TEST_F(IngestFixture, ConcurrentProducersOnMultipleStreamsReplayIndependently) {
    constexpr std::size_t k_streams = std::size(k_every_leg);
    constexpr std::size_t k_producers_per_stream = 2;
    constexpr std::size_t k_per_producer = 20;
    for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
        stream_server server({.threads = threads});

        std::vector<stream_id> ids;
        std::vector<std::unique_ptr<sink_capture>> captures;
        for (std::size_t s = 0; s < k_streams; ++s) {
            captures.push_back(std::make_unique<sink_capture>());
            ingest_options ingest;
            ingest.capacity = 64;
            ingest.sink = captures.back()->fn();
            ids.push_back(server.open_stream(open_config(k_every_leg[s].kind, s * 10,
                                                         k_every_leg[s].mode, std::move(ingest))));
        }

        std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> seq_rows(
            k_streams * k_producers_per_stream);
        std::vector<std::thread> producers;
        for (std::size_t s = 0; s < k_streams; ++s) {
            for (std::size_t p = 0; p < k_producers_per_stream; ++p) {
                const std::size_t slot = s * k_producers_per_stream + p;
                producers.emplace_back([&, s, p, slot] {
                    for (std::size_t i = 0; i < k_per_producer; ++i) {
                        const std::size_t row = k_boot + s * 10 + p * k_per_producer + i;
                        const ingest_result r = server.ingest(ids[s], y_.row(row));
                        ASSERT_TRUE(r.ok());
                        seq_rows[slot].emplace_back(r.sequence, row);
                    }
                });
            }
        }
        for (std::thread& t : producers) t.join();
        for (const stream_id id : ids) server.flush_stream(id);
        server.drain_all();

        constexpr std::size_t k_total = k_producers_per_stream * k_per_producer;
        for (std::size_t s = 0; s < k_streams; ++s) {
            std::vector<std::size_t> row_of(k_total, 0);
            for (std::size_t p = 0; p < k_producers_per_stream; ++p) {
                for (const auto& [seq, row] : seq_rows[s * k_producers_per_stream + p]) {
                    ASSERT_LT(seq, k_total);
                    row_of[seq] = row;
                }
            }
            const auto& results = captures[s]->results;
            ASSERT_EQ(results.size(), k_total);
            const auto twin = standalone(k_every_leg[s].kind, s * 10, k_every_leg[s].mode);
            for (std::size_t i = 0; i < k_total; ++i) {
                ASSERT_EQ(results[i].first, i);
                expect_same_detection(twin->push_bin(y_.row(row_of[i])), results[i].second,
                                      "threads " + std::to_string(threads) + " stream " +
                                          std::to_string(s) + " seq " + std::to_string(i));
            }
            twin->drain();
            EXPECT_EQ(server.stats(ids[s]).epoch, twin->model_epoch());
        }
    }
}

// ---------------------------------------------------------------------------
// Non-finite bins: refused at the door, typed, counted, never applied.
// ---------------------------------------------------------------------------

TEST_F(IngestFixture, NonFiniteBinsAreRefusedAndNeverApplied) {
    // One NaN in a refit window would poison every later model (and a
    // tracking stream's running variance for good). Every served bin
    // passes through ingest, which refuses a non-finite bin -- alone, or
    // anywhere in a batch, all-or-nothing -- so the clean bins after it,
    // across refits, match a shadow that never saw the bad ones.
    const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};
    for (const stream_kind kind : {stream_kind::diagnoser, stream_kind::tracking}) {
        const std::string context = "kind " + std::to_string(static_cast<int>(kind));
        stream_server server({.threads = 2});
        sink_capture capture;
        ingest_options ingest;
        ingest.capacity = 64;
        ingest.sink = capture.fn();
        const stream_id id = server.open_stream(
            open_config(kind, 0, refit_mode::deferred, std::move(ingest)));

        std::uint64_t refused = 0;
        for (std::size_t r = 0; r < 30; ++r) {
            const std::span<const double> clean = y_.row(k_boot + r);
            if (r % 3 == 0) {
                // A poisoned copy arrives first, alone and as the second
                // bin of a batch whose first bin is clean.
                std::vector<double> poisoned(clean.begin(), clean.end());
                poisoned[r % poisoned.size()] = bad_values[(r / 3) % 3];
                const ingest_result alone = server.ingest(id, poisoned);
                EXPECT_EQ(alone.error, ingest_error::non_finite) << context << " bin " << r;
                EXPECT_EQ(alone.accepted, 0u);
                const std::vector<std::span<const double>> batch = {clean, poisoned};
                EXPECT_EQ(server.ingest_batch(id, batch).error, ingest_error::non_finite)
                    << context << " bin " << r;
                refused += 3;
            }
            const ingest_result ok = server.ingest(id, clean);
            ASSERT_TRUE(ok.ok()) << context << " bin " << r;
            EXPECT_EQ(ok.sequence, r) << "a refused bin consumed a sequence";
        }
        server.flush_stream(id);
        server.drain_all();

        const ingest_stats st = server.ingest_statistics(id);
        EXPECT_EQ(st.accepted, 30u) << context;
        EXPECT_EQ(st.applied, 30u) << context;
        EXPECT_EQ(st.rejected, refused) << context;
        EXPECT_EQ(st.accepted, st.applied + st.dropped + st.pending) << context;

        const auto twin = standalone(kind, 0);
        ASSERT_EQ(capture.results.size(), 30u) << context;
        for (std::size_t r = 0; r < 30; ++r) {
            expect_same_detection(twin->push_bin(y_.row(k_boot + r)), capture.results[r].second,
                                  context + " bin " + std::to_string(r));
        }
        twin->drain();
        EXPECT_EQ(server.stats(id).epoch, twin->model_epoch()) << context;
        EXPECT_GE(server.stats(id).epoch, 2u) << context << ": no refit was spanned";
    }
}

TEST_F(IngestFixture, NonFiniteResidueInARecordIsRejected) {
    // A server never enqueues a non-finite bin, so a record whose residue
    // holds one is malformed: restoring it must throw and publish nothing.
    stream_server server({.threads = 0});
    ingest_options ingest;
    ingest.auto_drain = false;
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));
    constexpr double k_marker = 12345.6789;  // a residue value findable in the record
    std::vector<double> bin(y_.row(k_boot).begin(), y_.row(k_boot).end());
    bin[0] = k_marker;
    ASSERT_TRUE(server.ingest(id, bin).ok());
    std::ostringstream out(std::ios::binary);
    server.snapshot_stream(id, out, ckpt::encoding::native);
    const std::string record = std::move(out).str();

    std::string marker(sizeof k_marker, '\0');
    std::memcpy(marker.data(), &k_marker, sizeof k_marker);
    const std::size_t at = record.find(marker);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(record.find(marker, at + 1), std::string::npos) << "marker is ambiguous";

    stream_server target({.threads = 0});
    EXPECT_NO_THROW((void)target.restore_stream(record));
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        std::string poisoned = record;
        std::memcpy(poisoned.data() + at, &bad, sizeof bad);
        try {
            (void)target.restore_stream(poisoned);
            FAIL() << "a record with non-finite residue was restored";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
                << "got: " << e.what();
        }
    }
    EXPECT_EQ(target.stream_count(), 1u);
}

// ---------------------------------------------------------------------------
// Backpressure edges.
// ---------------------------------------------------------------------------

TEST_F(IngestFixture, RejectPolicyReturnsDistinctErrors) {
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 4;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    // Unknown stream.
    EXPECT_EQ(server.ingest(id + 99, y_.row(k_boot)).error, ingest_error::unknown_stream);

    // Width mismatch (counted as rejected, nothing enqueued).
    const std::vector<double> narrow(y_.cols() - 1, 0.0);
    EXPECT_EQ(server.ingest(id, narrow).error, ingest_error::width_mismatch);
    EXPECT_EQ(server.ingest_statistics(id).rejected, 1u);
    EXPECT_EQ(server.ingest_statistics(id).pending, 0u);

    // Fill the inbox.
    for (std::size_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(server.ingest(id, y_.row(k_boot + i)).ok());
    }

    // A batch longer than the inbox bound can never fit: an error code
    // (the concurrent edge never throws), not a wait and not an exception.
    std::vector<std::span<const double>> oversized(5, y_.row(k_boot));
    EXPECT_EQ(server.ingest_batch(id, oversized).error, ingest_error::inbox_full);
    const ingest_stats st = server.ingest_statistics(id);
    EXPECT_EQ(st.accepted, 4u);
    EXPECT_EQ(st.rejected, 6u);
    EXPECT_EQ(st.pending, 4u);

    // Draining makes room again.
    server.flush_stream(id);
    EXPECT_EQ(server.ingest_statistics(id).applied, 4u);
    std::vector<std::span<const double>> batch = {y_.row(k_boot + 4), y_.row(k_boot + 5)};
    EXPECT_TRUE(server.ingest_batch(id, batch).ok());
    server.flush_stream(id);
    EXPECT_EQ(capture.results.size(), 6u);
    for (std::size_t i = 0; i < capture.results.size(); ++i) {
        EXPECT_EQ(capture.results[i].first, i);
    }
}

TEST_F(IngestFixture, InboxCapacityRoundsUpToAPowerOfTwoAndIsCappedAtOpen) {
    // Above 2^16 an open is refused before anything is published: a
    // corrupted or hostile capacity must fail loudly, not hang the
    // power-of-two rounding or reserve a giant inbox.
    const auto open_with = [&](stream_server& server, std::size_t capacity) {
        ingest_options ingest;
        ingest.capacity = capacity;
        ingest.auto_drain = false;
        return server.open_stream(
            open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));
    };
    stream_server server({.threads = 0});
    constexpr std::size_t k_cap = std::size_t{1} << 16;
    EXPECT_THROW((void)open_with(server, k_cap + 1), std::invalid_argument);
    EXPECT_THROW((void)open_with(server, std::numeric_limits<std::size_t>::max()),
                 std::invalid_argument);
    EXPECT_EQ(server.stream_count(), 0u);
    EXPECT_NO_THROW((void)open_with(server, k_cap));

    // Capacity 3 acts as 4: a batch of 4 enqueues, and a batch of 5 can
    // never fit, so it is refused whole and counted.
    const stream_id three = open_with(server, 3);
    const std::vector<std::span<const double>> four(4, y_.row(k_boot));
    const std::vector<std::span<const double>> five(5, y_.row(k_boot));
    const ingest_result accepted = server.ingest_batch(three, four);
    ASSERT_TRUE(accepted.ok());
    EXPECT_EQ(accepted.accepted, 4u);
    server.flush_stream(three);
    EXPECT_EQ(server.ingest_batch(three, five).error, ingest_error::inbox_full);
    ingest_stats st = server.ingest_statistics(three);
    EXPECT_EQ(st.accepted, 4u);
    EXPECT_EQ(st.applied, 4u);
    EXPECT_EQ(st.rejected, 5u);

    // A batch that fits the bound but not the free room waits whole:
    // none of it enqueues until a flush makes room for all of it.
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(server.ingest(three, y_.row(k_boot + i)).ok());
    }
    ingest_result waited;
    std::thread producer([&] {
        const std::vector<std::span<const double>> two(2, y_.row(k_boot + 3));
        waited = server.ingest_batch(three, two);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(server.ingest_statistics(three).accepted, 7u);
    server.flush_stream(three);
    producer.join();
    ASSERT_TRUE(waited.ok());
    EXPECT_EQ(waited.sequence, 7u);
    EXPECT_EQ(server.ingest_statistics(three).accepted, 9u);

    // Capacity 0 selects the default bound: a 1,025-bin batch could never
    // fit, and 1,024 bins enqueue without a drainer.
    const stream_id deflt = open_with(server, 0);
    const std::vector<std::span<const double>> oversized(1025, y_.row(k_boot));
    EXPECT_EQ(server.ingest_batch(deflt, oversized).error, ingest_error::inbox_full);
    const std::vector<std::span<const double>> bound(1024, y_.row(k_boot));
    ASSERT_TRUE(server.ingest_batch(deflt, bound).ok());
    st = server.ingest_statistics(deflt);
    EXPECT_EQ(st.accepted, 1024u);
    EXPECT_EQ(st.pending, 1024u);
    EXPECT_EQ(st.rejected, 1025u);
}

TEST_F(IngestFixture, BlockPolicyWaitsForTheDrainer) {
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 2;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    constexpr std::size_t k_bins = 7;
    std::atomic<std::size_t> ingested{0};
    std::thread producer([&] {
        for (std::size_t i = 0; i < k_bins; ++i) {
            ASSERT_TRUE(server.ingest(id, y_.row(k_boot + i)).ok());
            ingested.fetch_add(1, std::memory_order_relaxed);
        }
    });
    // The producer can enqueue at most 2 bins before blocking; flushing
    // releases it batch by batch.
    while (ingested.load(std::memory_order_relaxed) < k_bins) {
        server.flush_stream(id);
        std::this_thread::yield();
    }
    producer.join();
    server.flush_stream(id);

    const ingest_stats st = server.ingest_statistics(id);
    EXPECT_EQ(st.accepted, k_bins);
    EXPECT_EQ(st.applied, k_bins);
    ASSERT_EQ(capture.results.size(), k_bins);
    for (std::size_t i = 0; i < k_bins; ++i) EXPECT_EQ(capture.results[i].first, i);
}

TEST_F(IngestFixture, CloseStreamDrainsNonEmptyInboxAndWakesBlockedProducers) {
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 2;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    ASSERT_TRUE(server.ingest(id, y_.row(k_boot)).ok());
    ASSERT_TRUE(server.ingest(id, y_.row(k_boot + 1)).ok());

    std::atomic<int> blocked_error{-1};
    std::thread producer([&] {
        const ingest_result r = server.ingest(id, y_.row(k_boot + 2));  // blocks: full
        blocked_error.store(static_cast<int>(r.error), std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(blocked_error.load(std::memory_order_acquire), -1)
        << "producer should be blocked on the full inbox";

    // close_stream must wake the blocked producer (stream_closed) and
    // apply the two pending bins before unpublishing.
    server.close_stream(id);
    producer.join();
    EXPECT_EQ(blocked_error.load(), static_cast<int>(ingest_error::stream_closed));
    ASSERT_EQ(capture.results.size(), 2u);
    const auto twin = standalone(stream_kind::tracking, 0);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(capture.results[i].first, i);
        expect_same_detection(twin->push_bin(y_.row(k_boot + i)), capture.results[i].second,
                              "residue bin " + std::to_string(i));
    }
    EXPECT_EQ(server.stream_count(), 0u);
    EXPECT_EQ(server.ingest(id, y_.row(k_boot)).error, ingest_error::unknown_stream);
}

TEST_F(IngestFixture, DetachStreamWakesBlockedProducersAndCarriesTheResidue) {
    // detach_stream writes the pending bins into the record instead of
    // applying them, so no drain frees room for a producer waiting on the
    // full inbox: the close itself must wake it, with stream_closed.
    stream_server server({.threads = 0});
    ingest_options ingest;
    ingest.capacity = 2;
    ingest.auto_drain = false;
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));
    ASSERT_TRUE(server.ingest(id, y_.row(k_boot)).ok());
    ASSERT_TRUE(server.ingest(id, y_.row(k_boot + 1)).ok());

    std::atomic<int> blocked_error{-1};
    std::thread producer([&] {
        const ingest_result r = server.ingest(id, y_.row(k_boot + 2));  // blocks: full
        blocked_error.store(static_cast<int>(r.error), std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(blocked_error.load(std::memory_order_acquire), -1)
        << "producer should be blocked on the full inbox";

    std::ostringstream record(std::ios::binary);
    server.detach_stream(id, record);
    producer.join();
    EXPECT_EQ(blocked_error.load(), static_cast<int>(ingest_error::stream_closed));

    stream_server target({.threads = 0});
    const stream_id moved = target.restore_stream(std::move(record).str());
    const ingest_stats st = target.ingest_statistics(moved);
    EXPECT_EQ(st.accepted, 2u);
    EXPECT_EQ(st.pending, 2u);
    EXPECT_EQ(target.stats(moved).processed, 0u);
}

TEST_F(IngestFixture, IngestBatchAssignsConsecutiveSequencesUnderContention) {
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 64;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    constexpr std::size_t k_threads = 4;
    constexpr std::size_t k_batches = 4;
    constexpr std::size_t k_batch_size = 3;
    std::vector<std::vector<std::uint64_t>> first_seqs(k_threads);
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < k_threads; ++t) {
        producers.emplace_back([&, t] {
            for (std::size_t b = 0; b < k_batches; ++b) {
                std::vector<std::span<const double>> batch;
                for (std::size_t i = 0; i < k_batch_size; ++i) {
                    batch.push_back(y_.row(k_boot + (t * k_batches + b) * k_batch_size + i));
                }
                const ingest_result r = server.ingest_batch(id, batch);
                ASSERT_TRUE(r.ok());
                ASSERT_EQ(r.accepted, k_batch_size);
                first_seqs[t].push_back(r.sequence);
            }
        });
    }
    for (std::thread& t : producers) t.join();
    server.flush_stream(id);

    // Every batch's first sequence must start a run of k_batch_size that
    // no other batch overlaps: the set of first sequences taken mod
    // k_batch_size partitions 0..total-1 exactly.
    constexpr std::size_t k_total = k_threads * k_batches * k_batch_size;
    std::vector<bool> covered(k_total, false);
    for (const auto& seqs : first_seqs) {
        for (const std::uint64_t first : seqs) {
            for (std::size_t i = 0; i < k_batch_size; ++i) {
                ASSERT_LT(first + i, k_total);
                ASSERT_FALSE(covered[first + i]) << "batch runs overlap at " << first + i;
                covered[first + i] = true;
            }
        }
    }
    ASSERT_EQ(capture.results.size(), k_total);
    for (std::size_t i = 0; i < k_total; ++i) ASSERT_EQ(capture.results[i].first, i);
}

// ---------------------------------------------------------------------------
// Checkpoint format v3: inbox residue round trip, and backward
// compatibility with version-2 records.
// ---------------------------------------------------------------------------

TEST_F(IngestFixture, SnapshotWithInboxResidueRestoresAndReplaysExactly) {
    const std::string dir = temp_dir("ingest_residue_snapshot");
    stream_server original({.threads = 2});
    sink_capture original_capture;
    ingest_options ingest;
    ingest.capacity = 32;
    ingest.auto_drain = false;
    ingest.sink = original_capture.fn();
    const stream_id id = original.open_stream(
        open_config(stream_kind::diagnoser, 0, refit_mode::deferred, std::move(ingest)));

    // Apply 11 bins (the deferred refit triggers at 9, swaps at 13: a
    // pending refit is in the checkpoint too), then leave 5 more bins
    // *pending* in the inbox.
    for (std::size_t i = 0; i < 11; ++i) {
        ASSERT_TRUE(original.ingest(id, y_.row(k_boot + i)).ok());
    }
    original.flush_stream(id);
    for (std::size_t i = 11; i < 16; ++i) {
        ASSERT_TRUE(original.ingest(id, y_.row(k_boot + i)).ok());
    }
    {
        const auto& diag = dynamic_cast<const streaming_diagnoser&>(original.stream(id));
        ASSERT_TRUE(diag.refit_pending());
    }
    ASSERT_EQ(original.ingest_statistics(id).pending, 5u);

    original.snapshot_all(dir);

    // The per-stream record is a server_stream container of the current
    // format version.
    {
        std::ifstream in((std::filesystem::path(dir) / ("stream_" + std::to_string(id) +
                                                        ".ckpt")).string(),
                         std::ios::binary);
        ASSERT_TRUE(in.is_open());
        const ckpt::header_info hdr = ckpt::read_header_info(in);
        EXPECT_EQ(hdr.type_tag, "server_stream");
        EXPECT_EQ(hdr.version, 4u);
        EXPECT_EQ(hdr.version, ckpt::format_version());
    }

    // Restore into a different pool size; the residue must come back
    // pending, with counters and sequence numbering intact.
    stream_server restored({.threads = 1});
    restored.restore_all(dir);
    sink_capture restored_capture;
    restored.set_ingest_sink(id, restored_capture.fn());
    {
        const ingest_stats orig_stats = original.ingest_statistics(id);
        const ingest_stats rest_stats = restored.ingest_statistics(id);
        EXPECT_EQ(rest_stats.accepted, orig_stats.accepted);
        EXPECT_EQ(rest_stats.applied, orig_stats.applied);
        EXPECT_EQ(rest_stats.pending, 5u);
        EXPECT_EQ(rest_stats.next_sequence, orig_stats.next_sequence);
    }

    // Flush both sides: the residue applies first, in sequence order,
    // bit-identically; then both continue with identical new bins.
    original.flush_stream(id);
    restored.flush_stream(id);
    for (std::size_t i = 16; i < 40; ++i) {
        ASSERT_TRUE(original.ingest(id, y_.row(k_boot + i)).ok());
        ASSERT_TRUE(restored.ingest(id, y_.row(k_boot + i)).ok());
        original.flush_stream(id);
        restored.flush_stream(id);
    }
    // original_capture saw sequences 0..39; restored_capture saw 11..39.
    ASSERT_EQ(original_capture.results.size(), 40u);
    ASSERT_EQ(restored_capture.results.size(), 29u);
    for (std::size_t i = 0; i < restored_capture.results.size(); ++i) {
        const auto& [seq, got] = restored_capture.results[i];
        ASSERT_EQ(seq, 11 + i);
        expect_same_detection(original_capture.results[11 + i].second, got,
                              "replay seq " + std::to_string(seq));
    }
    EXPECT_EQ(restored.stats(id).epoch, original.stats(id).epoch);
    EXPECT_EQ(restored.stats(id).alarms, original.stats(id).alarms);

    std::filesystem::remove_all(dir);
}

TEST_F(IngestFixture, SnapshotAndDrainAllWhileSinksReadTheServerDoNotDeadlock) {
    // Regression: an ingest sink that calls back into the server (as the
    // backbone_monitor example does) runs on the drainer's thread. A
    // snapshot_all/drain_all that held the server-wide lock while waiting
    // for that drain to retire would deadlock; maintenance must quiesce
    // streams without starving sink callbacks. A diagnoser in deferred
    // mode keeps refits genuinely in flight so drain_all has work, and
    // drain_all must take the per-stream drain role first -- joining a
    // detector mid-apply would race the drainer.
    stream_server server({.threads = 2});
    std::atomic<std::size_t> sink_reads{0};
    ingest_options ingest;
    ingest.capacity = 64;
    const stream_id id = server.open_stream(
        open_config(stream_kind::diagnoser, 0, refit_mode::deferred, std::move(ingest)));
    server.set_ingest_sink(id, [&](std::uint64_t, const detection_result&) {
        // Read accessors from inside the drain: allowed by contract.
        (void)server.stats(id);
        (void)server.ingest_statistics(id);
        sink_reads.fetch_add(1, std::memory_order_relaxed);
    });

    const std::string dir = temp_dir("ingest_snapshot_under_load");
    std::atomic<bool> stop{false};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
            std::size_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                (void)server.ingest(id, y_.row(k_boot + (p * 40 + i) % 200));
                ++i;
            }
        });
    }
    // Neither snapshot_all nor drain_all applies bins, so a sink read can
    // only come from a producer's drain. On a loaded host five rounds can
    // finish before either producer first runs: keep the rounds going
    // (producers parked on a full inbox need the role windows between
    // them) until a sink has read the server, bounded by a deadline so a
    // regression fails instead of hanging.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    std::size_t rounds = 0;
    while ((rounds < 5 || sink_reads.load() == 0) && std::chrono::steady_clock::now() < deadline) {
        server.snapshot_all(dir);
        server.drain_all();
        ++rounds;
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : producers) t.join();
    server.flush_stream(id);
    EXPECT_GE(rounds, 5u);
    EXPECT_GT(sink_reads.load(), 0u);
    const ingest_stats st = server.ingest_statistics(id);
    EXPECT_EQ(st.accepted, st.applied + st.dropped + st.pending);
    std::filesystem::remove_all(dir);
}

TEST_F(IngestFixture, SnapshotCompletesWhileAProducerIsBlockedOnAFullInbox) {
    // Regression: a producer parked on a full inbox must not
    // hold the stream quiescence lock -- snapshot_all has to complete
    // (freezing the full inbox as residue) while the producer stays
    // parked, and the producer must finish once someone drains.
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 2;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    ASSERT_TRUE(server.ingest(id, y_.row(k_boot)).ok());
    ASSERT_TRUE(server.ingest(id, y_.row(k_boot + 1)).ok());
    std::atomic<bool> third_done{false};
    std::thread producer([&] {
        ASSERT_TRUE(server.ingest(id, y_.row(k_boot + 2)).ok());  // parks: inbox full
        third_done.store(true, std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_FALSE(third_done.load(std::memory_order_acquire));

    const std::string dir = temp_dir("ingest_snapshot_blocked_producer");
    server.snapshot_all(dir);  // must not hang behind the parked producer
    EXPECT_EQ(server.ingest_statistics(id).pending, 2u);

    server.flush_stream(id);  // frees space; the parked producer finishes
    producer.join();
    EXPECT_TRUE(third_done.load());
    server.flush_stream(id);
    EXPECT_EQ(server.ingest_statistics(id).applied, 3u);
    std::filesystem::remove_all(dir);
}

TEST_F(IngestFixture, FailedApplyCountsTheBinSoStatsStayConserved) {
    // A detector error surfacing mid-drain consumes the popped bin; it
    // must be accounted (as dropped) or the conservation invariant would
    // be silently broken for the rest of the stream's life. Bin 3 triggers
    // a refit whose observer throws. A blocking or pool-less deferred fit
    // runs inline and throws from that trigger bin; a pooled deferred fit
    // runs as a pool task and throws from its swap bin (trigger + 4),
    // which waits for it on the draining caller's thread. The error
    // reaches that caller: the ingest with auto_drain, the flush without.
    struct failing_leg {
        refit_mode mode;
        std::size_t threads;
        std::size_t failing_bin;
    };
    constexpr failing_leg k_legs[] = {
        {refit_mode::blocking, 0, 2},
        {refit_mode::deferred, 0, 2},
        {refit_mode::deferred, 2, 7},
    };
    for (const failing_leg& l : k_legs) {
        for (const bool auto_drain : {true, false}) {
            const std::string context = "mode " + std::to_string(static_cast<int>(l.mode)) +
                                        " threads " + std::to_string(l.threads) +
                                        " auto_drain " + std::to_string(auto_drain);
            stream_server server({.threads = l.threads});
            ingest_options ingest;
            ingest.capacity = 16;
            ingest.auto_drain = auto_drain;
            stream_open_config cfg =
                open_config(stream_kind::diagnoser, 0, l.mode, std::move(ingest));
            cfg.streaming.refit_interval = 3;
            cfg.streaming.refit_observer = [] { throw std::runtime_error("fit exploded"); };
            const stream_id id = server.open_stream(std::move(cfg));

            for (std::size_t i = 0; i < l.failing_bin; ++i) {
                ASSERT_TRUE(server.ingest(id, y_.row(k_boot + i)).ok()) << context;
            }
            if (auto_drain) {
                EXPECT_THROW((void)server.ingest(id, y_.row(k_boot + l.failing_bin)),
                             std::runtime_error)
                    << context;
            } else {
                ASSERT_TRUE(server.ingest(id, y_.row(k_boot + l.failing_bin)).ok()) << context;
                EXPECT_THROW(server.flush_stream(id), std::runtime_error) << context;
            }

            const ingest_stats st = server.ingest_statistics(id);
            EXPECT_EQ(st.accepted, l.failing_bin + 1) << context;
            EXPECT_EQ(st.applied, l.failing_bin) << context;
            EXPECT_EQ(st.dropped, 1u) << context;
            EXPECT_EQ(st.pending, 0u) << context;
            EXPECT_EQ(st.accepted, st.applied + st.dropped + st.pending)
                << context << ": conservation violated";
        }
    }
}

TEST_F(IngestFixture, MalformedInboxCapacityInCheckpointIsRejected) {
    const std::string dir = temp_dir("ingest_bad_capacity");
    {
        stream_server server({.threads = 0});
        ingest_options ingest;
        ingest.capacity = 8;
        (void)server.open_stream(
            open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));
        server.snapshot_all(dir);
    }
    // Corrupt the capacity field (first u64 after the server_stream
    // header: 8 magic + 8 version + 8 tag length + 13 tag bytes = 37).
    const std::string path = (std::filesystem::path(dir) / "stream_1.ckpt").string();
    {
        std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(f.is_open());
        f.seekp(37);
        const std::uint64_t huge = ~std::uint64_t{0};
        f.write(reinterpret_cast<const char*>(&huge), sizeof huge);
    }
    stream_server restored({.threads = 0});
    try {
        restored.restore_all(dir);
        FAIL() << "corrupted inbox capacity was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("inbox capacity"), std::string::npos)
            << "got: " << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST_F(IngestFixture, LegacyRawDetectorSnapshotDirectoryStillRestores) {
    // A format-v2 snapshot directory held raw detector records (no
    // server_stream container). Build one by hand and restore it: the
    // stream must come back with an empty default inbox.
    const std::string dir = temp_dir("ingest_legacy_snapshot");
    std::filesystem::create_directories(dir);
    {
        tracking_detector detector(bootstrap_slice(0), 8);
        std::ofstream record((std::filesystem::path(dir) / "stream_1.ckpt").string(),
                             std::ios::binary);
        detector.save(record);
        std::ofstream manifest((std::filesystem::path(dir) / "manifest.ckpt").string(),
                               std::ios::binary);
        ckpt::write_header(manifest, "stream_server_manifest");
        ckpt::write_u64(manifest, 2);  // next_id
        ckpt::write_u64(manifest, 1);  // stream count
        ckpt::write_u64(manifest, 1);  // the stream id
    }

    stream_server server({.threads = 0});
    server.restore_all(dir);
    ASSERT_EQ(server.stream_count(), 1u);
    const ingest_stats st = server.ingest_statistics(1);
    EXPECT_EQ(st.accepted, 0u);
    EXPECT_EQ(st.pending, 0u);
    EXPECT_EQ(st.next_sequence, 0u);
    EXPECT_TRUE(server.ingest(1, y_.row(k_boot)).ok());
    server.flush_stream(1);
    EXPECT_EQ(server.ingest_statistics(1).applied, 1u);
    std::filesystem::remove_all(dir);
}

TEST_F(IngestFixture, VersionTwoRecordsLoadVersionOneAndFutureVersionsRejected) {
    // tracking_detector records have one layout in versions 2 to 4, so a
    // version-2 or -3 record is exactly a version-4 record with a patched
    // version field (streaming_diagnoser records changed A's layout in
    // version 4; tests/test_streaming.cpp replays a committed v3 one).
    // Patch the version written on save down: 2 and 3 must load; versions
    // 1 and 5 must be rejected with a clear error.
    tracking_detector detector(bootstrap_slice(0), 8);
    std::ostringstream out;
    detector.save(out);
    const std::string v4_bytes = out.str();

    const auto with_version = [&](std::uint64_t version) {
        std::string bytes = v4_bytes;
        for (std::size_t b = 0; b < 8; ++b) {
            bytes[8 + b] = static_cast<char>((version >> (8 * b)) & 0xff);
        }
        return bytes;
    };

    for (const std::uint64_t old : {std::uint64_t{2}, std::uint64_t{3}}) {
        std::istringstream in(with_version(old));
        const std::unique_ptr<stream_detector> restored = load_stream_detector(in);
        ASSERT_NE(restored, nullptr) << old;
        EXPECT_EQ(restored->dimension(), y_.cols()) << old;
    }
    for (const std::uint64_t bad : {std::uint64_t{1}, std::uint64_t{5}}) {
        std::istringstream in(with_version(bad));
        try {
            load_stream_detector(in);
            FAIL() << "version " << bad << " record was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("unsupported format version"),
                      std::string::npos)
                << "got: " << e.what();
        }
    }
}

}  // namespace
}  // namespace netdiag
