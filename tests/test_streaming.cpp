// The pipelined streaming subsystem: stream_detector interface, epoch-
// versioned background model swaps, deterministic-mode bit-identity across
// pool sizes, and checkpoint -> restore -> replay equivalence.
#include "subspace/stream_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "linalg/ops.h"
#include "measurement/link_loads.h"
#include "measurement/stream_checkpoint.h"
#include "subspace/online.h"
#include "topology/builders.h"
#include "topology/routing.h"

namespace netdiag {
namespace {

std::string temp_checkpoint_path(const char* name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// Writes a detector's record to a file in the given encoding.
void save_to_file(stream_detector& detector, const std::string& path,
                  ckpt::encoding enc = ckpt::encoding::native) {
    std::ofstream out(path, std::ios::binary);
    ckpt::set_encoding(out, enc);
    detector.save(out);
    out.flush();
    ASSERT_TRUE(out) << "cannot write " << path;
}

// Reads a detector record from a file through the tag dispatch.
std::unique_ptr<stream_detector> load_from_file(const std::string& path,
                                                thread_pool* pool = nullptr) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    return load_stream_detector(in, pool);
}

void expect_same_diagnosis(const diagnosis& a, const diagnosis& b, std::size_t at) {
    ASSERT_EQ(b.anomalous, a.anomalous) << "bin " << at;
    ASSERT_EQ(b.spe, a.spe) << "bin " << at;
    ASSERT_EQ(b.threshold, a.threshold) << "bin " << at;
    ASSERT_EQ(b.flow.has_value(), a.flow.has_value()) << "bin " << at;
    if (a.flow) {
        ASSERT_EQ(*b.flow, *a.flow) << "bin " << at;
    }
    ASSERT_EQ(b.magnitude, a.magnitude) << "bin " << at;
    ASSERT_EQ(b.estimated_bytes, a.estimated_bytes) << "bin " << at;
}

void expect_same_detection(const detection_result& a, const detection_result& b,
                           std::size_t at) {
    ASSERT_EQ(b.anomalous, a.anomalous) << "bin " << at;
    ASSERT_EQ(b.spe, a.spe) << "bin " << at;
    ASSERT_EQ(b.threshold, a.threshold) << "bin " << at;
}

class StreamingFixture : public ::testing::Test {
protected:
    void SetUp() override {
        topo_ = make_abilene();
        routing_ = build_routing(topo_);
        const std::size_t n = routing_.flow_count();

        std::mt19937_64 rng(7031);
        std::normal_distribution<double> gauss(0.0, 1.0);
        const std::size_t t_total = 560;
        matrix x(n, t_total, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            const double mean = 1e6 * (1.0 + static_cast<double>(j % 11));
            for (std::size_t ti = 0; ti < t_total; ++ti) {
                const double diurnal =
                    1.0 + 0.4 * std::sin(2.0 * 3.14159265 * static_cast<double>(ti) / 144.0);
                x(j, ti) = std::max(0.0, mean * diurnal + 0.03 * mean * gauss(rng));
            }
        }
        const matrix y_full = link_loads_from_flows(routing_.a, x);

        bootstrap_.assign(400, y_full.cols());
        for (std::size_t r = 0; r < 400; ++r) bootstrap_.set_row(r, y_full.row(r));
        stream_.assign(t_total - 400, y_full.cols());
        for (std::size_t r = 400; r < t_total; ++r) stream_.set_row(r - 400, y_full.row(r));
    }

    topology topo_{"unset"};
    routing_result routing_;
    matrix bootstrap_;
    matrix stream_;
};

// ---------------------------------------------------------------------------
// Non-blocking push: the acceptance criterion. A refit the test holds
// captive must not delay the pushes that arrive while it is in flight --
// if push waited on the fit, the loop below would deadlock (and time out)
// because the fit is only released after the loop completes. No wall-clock
// assertions, so the test cannot flake on a loaded machine.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, SlowBackgroundRefitDoesNotDelayDetection) {
    thread_pool pool(2);
    std::atomic<int> refits_started{0};
    std::atomic<bool> release_fit{false};
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 5;  // trigger quickly
    cfg.pool = &pool;
    cfg.mode = refit_mode::deferred;
    cfg.swap_horizon = 30;  // trigger at bin 5, swap before bin 35
    cfg.refit_observer = [&refits_started, &release_fit] {
        ++refits_started;
        while (!release_fit.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };

    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 5; ++r) diag.push(stream_.row(r));  // fires the refit
    ASSERT_TRUE(diag.refit_pending());
    // Wait until the worker has actually entered the captive fit, so the
    // pushes below provably overlap it (on a loaded machine the worker
    // may lag the submit by many bins, which used to flake this test).
    while (refits_started.load() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // These bins arrive while the fit is held captive: every push must
    // complete against the old model without touching the refit.
    for (std::size_t r = 5; r < 35; ++r) {
        diag.push(stream_.row(r));
        EXPECT_EQ(diag.model_epoch(), 0u) << "swap applied while the fit is still held";
    }
    EXPECT_GE(refits_started.load(), 1);

    // Release the fit; the push at the boundary applies the swap exactly
    // once.
    release_fit.store(true);
    diag.drain();
    diag.push(stream_.row(35));
    EXPECT_EQ(diag.model_epoch(), 1u);
    EXPECT_EQ(diag.refit_count(), 1u);
}

TEST_F(StreamingFixture, DeferredPushesBeforeBoundaryNeverWait) {
    thread_pool pool(1);
    std::atomic<bool> release_fit{false};
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 5;
    cfg.pool = &pool;
    cfg.mode = refit_mode::deferred;
    cfg.swap_horizon = 40;
    cfg.refit_observer = [&release_fit] {
        while (!release_fit.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };

    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 5; ++r) diag.push(stream_.row(r));
    ASSERT_TRUE(diag.refit_pending());

    // All of these land before the swap boundary at bin 45: none may wait
    // on the captive fit.
    for (std::size_t r = 5; r < 40; ++r) diag.push(stream_.row(r));
    EXPECT_EQ(diag.model_epoch(), 0u);
    release_fit.store(true);
    diag.drain();
}

// ---------------------------------------------------------------------------
// Deterministic mode: the full output sequence is bit-identical for any
// pool size (including none), for both stream detectors and the tracker
// beneath tracking_detector.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, DeferredModeBitIdenticalAcrossThreadCounts) {
    streaming_config base;
    base.window = 400;
    base.refit_interval = 20;
    base.mode = refit_mode::deferred;
    base.swap_horizon = 7;

    streaming_diagnoser reference(bootstrap_, routing_.a, base);  // no pool at all
    std::vector<diagnosis> expected;
    for (std::size_t r = 0; r < 70; ++r) expected.push_back(reference.push(stream_.row(r)));
    EXPECT_EQ(reference.refit_count(), 3u);  // triggers at 20/40/60, swaps at 27/47/67

    for (std::size_t threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        streaming_config cfg = base;
        cfg.pool = &pool;
        streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
        for (std::size_t r = 0; r < 70; ++r) {
            const diagnosis d = diag.push(stream_.row(r));
            expect_same_diagnosis(expected[r], d, r);
        }
        EXPECT_EQ(diag.model_epoch(), reference.model_epoch()) << "threads=" << threads;
        EXPECT_EQ(diag.alarm_count(), reference.alarm_count()) << "threads=" << threads;
        diag.drain();
    }
}

// ---------------------------------------------------------------------------
// Epochs and the unified interface.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, EpochAdvancesOncePerAppliedSwap) {
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 10;
    cfg.mode = refit_mode::deferred;
    cfg.swap_horizon = 3;
    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    std::vector<std::uint64_t> epochs;
    for (std::size_t r = 0; r < 30; ++r) {
        diag.push(stream_.row(r));
        epochs.push_back(diag.model_epoch());
    }
    // Triggers at bins 10/20 (processed 10, 20), swaps applied before
    // testing bins 13 and 23.
    EXPECT_EQ(epochs[11], 0u);
    EXPECT_EQ(epochs[13], 1u);
    EXPECT_EQ(epochs[21], 1u);
    EXPECT_EQ(epochs[23], 2u);
}

TEST_F(StreamingFixture, InterfaceCoversBothDetectors) {
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 0;
    std::vector<std::unique_ptr<stream_detector>> detectors;
    detectors.push_back(std::make_unique<streaming_diagnoser>(bootstrap_, routing_.a, cfg));
    detectors.push_back(std::make_unique<tracking_detector>(bootstrap_, 10));

    for (auto& det : detectors) {
        EXPECT_EQ(det->dimension(), bootstrap_.cols());
        for (std::size_t r = 0; r < 10; ++r) det->push_bin(stream_.row(r));
        EXPECT_EQ(det->processed(), 10u);
        EXPECT_LE(det->alarm_count(), det->processed());
        det->drain();
    }
    // With refits off the diagnoser keeps its bootstrap model; the
    // tracking detector folds every bin, advancing its epoch each time.
    EXPECT_EQ(detectors[0]->model_epoch(), 0u);
    EXPECT_EQ(detectors[1]->model_epoch(), 10u);
}

// ---------------------------------------------------------------------------
// Checkpoint -> restore -> replay: the restored stream must reproduce the
// exact remaining detection sequence of the uninterrupted run.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, StreamingDiagnoserCheckpointReplaysExactly) {
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 15;
    cfg.mode = refit_mode::deferred;
    cfg.swap_horizon = 5;

    streaming_diagnoser live(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 33; ++r) live.push(stream_.row(r));

    const std::string path = temp_checkpoint_path("streaming_diagnoser.ckpt");
    save_to_file(live, path);
    streaming_diagnoser restored = [&] {
        std::ifstream in(path, std::ios::binary);
        return streaming_diagnoser::restore(in);
    }();

    EXPECT_EQ(restored.processed(), live.processed());
    EXPECT_EQ(restored.model_epoch(), live.model_epoch());
    EXPECT_EQ(restored.refit_count(), live.refit_count());
    for (std::size_t r = 33; r < 80; ++r) {
        const diagnosis a = live.push(stream_.row(r));
        const diagnosis b = restored.push(stream_.row(r));
        expect_same_diagnosis(a, b, r);
        ASSERT_EQ(restored.model_epoch(), live.model_epoch()) << "bin " << r;
    }
    std::remove(path.c_str());
}

TEST_F(StreamingFixture, CheckpointWithRefitInFlightStillReplaysExactly) {
    // Snapshot while a background fit is pending: save() drains it but the
    // deferred swap boundary must survive the round trip.
    thread_pool pool(2);
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 20;
    cfg.pool = &pool;
    cfg.mode = refit_mode::deferred;
    cfg.swap_horizon = 10;

    streaming_diagnoser live(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 22; ++r) live.push(stream_.row(r));  // trigger at 20, swap at 30

    const std::string path = temp_checkpoint_path("streaming_pending.ckpt");
    save_to_file(live, path);
    ASSERT_TRUE(live.refit_pending());

    // Restore with no pool: pendingness and the swap bin are state, not
    // wiring, so the replay still swaps at bin 30.
    std::unique_ptr<stream_detector> restored = load_from_file(path);
    EXPECT_EQ(restored->model_epoch(), live.model_epoch());
    for (std::size_t r = 22; r < 60; ++r) {
        const diagnosis a = live.push(stream_.row(r));
        const detection_result b = restored->push_bin(stream_.row(r));
        ASSERT_EQ(b.anomalous, a.anomalous) << "bin " << r;
        ASSERT_EQ(b.spe, a.spe) << "bin " << r;
        ASSERT_EQ(b.threshold, a.threshold) << "bin " << r;
        ASSERT_EQ(restored->model_epoch(), live.model_epoch()) << "bin " << r;
    }
    EXPECT_GE(restored->model_epoch(), 1u);
    std::remove(path.c_str());
}

TEST_F(StreamingFixture, TrackingDetectorCheckpointReplaysExactly) {
    tracking_detector live(bootstrap_, 12);
    for (std::size_t r = 0; r < 25; ++r) live.push(stream_.row(r));

    const std::string path = temp_checkpoint_path("tracking_detector.ckpt");
    save_to_file(live, path);
    std::unique_ptr<stream_detector> restored = load_from_file(path);

    EXPECT_EQ(restored->processed(), live.processed());
    EXPECT_EQ(restored->model_epoch(), live.model_epoch());
    for (std::size_t r = 25; r < 70; ++r) {
        const detection_result a = live.push(stream_.row(r));
        const detection_result b = restored->push_bin(stream_.row(r));
        expect_same_detection(a, b, r);
    }
    std::remove(path.c_str());
}

TEST_F(StreamingFixture, TrackerCheckpointReplaysExactly) {
    incremental_pca_tracker live(bootstrap_, 8);
    for (std::size_t r = 0; r < 20; ++r) live.push(stream_.row(r));

    const std::string path = temp_checkpoint_path("tracker.ckpt");
    {
        std::ofstream out(path, std::ios::binary);
        live.save(out);
    }
    incremental_pca_tracker restored = [&] {
        std::ifstream in(path, std::ios::binary);
        return incremental_pca_tracker::restore(in);
    }();

    ASSERT_EQ(restored.axes(), live.axes());
    for (std::size_t r = 20; r < 50; ++r) {
        live.push(stream_.row(r));
        restored.push(stream_.row(r));
    }
    ASSERT_EQ(restored.axes(), live.axes());
    ASSERT_EQ(restored.axis_variance(), live.axis_variance());
    ASSERT_EQ(restored.running_mean(), live.running_mean());
    ASSERT_EQ(restored.sample_count(), live.sample_count());
    std::remove(path.c_str());
}

TEST_F(StreamingFixture, CheckpointRejectsGarbage) {
    std::istringstream in("this is not a checkpoint", std::ios::binary);
    EXPECT_THROW(load_stream_detector(in), std::runtime_error);
}

TEST_F(StreamingFixture, RetiredEagerModeTagIsRejected) {
    // Refit-mode tag 2 (the timing-dependent eager mode) is retired: a
    // record carrying it is malformed, not a mode to fall back from.
    // Blocking and deferred records of the same diagnoser differ only in
    // that tag, which locates it.
    const auto record_of = [&](refit_mode mode) {
        streaming_config cfg;
        cfg.window = 400;
        cfg.mode = mode;
        streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
        std::ostringstream out(std::ios::binary);
        diag.save(out);
        return std::move(out).str();
    };
    const std::string blocking = record_of(refit_mode::blocking);
    std::string retired = record_of(refit_mode::deferred);
    ASSERT_EQ(retired.size(), blocking.size());
    std::size_t tag_at = std::string::npos;
    for (std::size_t i = 0; i < retired.size(); ++i) {
        if (retired[i] == blocking[i]) continue;
        ASSERT_EQ(tag_at, std::string::npos) << "records differ beyond the mode tag";
        ASSERT_EQ(retired[i], 1);
        tag_at = i;
    }
    ASSERT_NE(tag_at, std::string::npos);
    {
        std::istringstream in(retired, std::ios::binary);
        EXPECT_NO_THROW((void)load_stream_detector(in));
    }
    retired[tag_at] = 2;
    std::istringstream in(retired, std::ios::binary);
    EXPECT_THROW((void)load_stream_detector(in), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Refit triggers during a pending refit: the freshest window snapshot is
// queued (never dropped), and the queued fit launches at the swap.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, SecondBurstDuringSlowRefitStillProducesASwap) {
    // The refit interval (5) is far shorter than the swap horizon (20), so
    // triggers at bins 10/15/20 all land while the bin-5 refit is pending.
    // The first fit is held captive to model a slow refit; the queued
    // snapshot must still produce a second model swap after it is applied.
    thread_pool pool(2);
    std::atomic<int> fits_started{0};
    std::atomic<bool> release_first_fit{false};
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 5;
    cfg.swap_horizon = 20;
    cfg.pool = &pool;
    cfg.mode = refit_mode::deferred;
    cfg.refit_observer = [&fits_started, &release_first_fit] {
        if (fits_started.fetch_add(1) == 0) {
            while (!release_first_fit.load()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
    };

    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 20; ++r) diag.push(stream_.row(r));
    // Trigger at bin 5 is computing; triggers at 10/15/20 queued (freshest
    // wins, so exactly one snapshot is held).
    ASSERT_TRUE(diag.refit_pending());
    EXPECT_TRUE(diag.refit_queued());
    EXPECT_EQ(diag.model_epoch(), 0u);

    release_first_fit.store(true);
    diag.drain();

    // Swap 1 applies at bin 25 (5 + horizon) and immediately launches the
    // queued fit, which swaps 20 bins later at bin 45.
    for (std::size_t r = 20; r < 25; ++r) diag.push(stream_.row(r));
    EXPECT_EQ(diag.model_epoch(), 0u);
    diag.push(stream_.row(25));
    EXPECT_EQ(diag.model_epoch(), 1u);
    EXPECT_FALSE(diag.refit_queued()) << "queued snapshot should have launched at the swap";
    ASSERT_TRUE(diag.refit_pending());

    for (std::size_t r = 26; r <= 45; ++r) diag.push(stream_.row(r));
    EXPECT_EQ(diag.model_epoch(), 2u);
    EXPECT_EQ(diag.refit_count(), 2u);
    EXPECT_GE(fits_started.load(), 2);
    diag.drain();
}

TEST_F(StreamingFixture, QueuedRefitCascadeIsBitIdenticalAcrossPoolSizes) {
    // Same geometry (interval < horizon, so every cycle queues a refit)
    // without captive fits: the cascade of queued launches is part of the
    // deterministic-replay contract, for any pool size including none.
    streaming_config base;
    base.window = 400;
    base.refit_interval = 5;
    base.swap_horizon = 20;
    base.mode = refit_mode::deferred;

    streaming_diagnoser reference(bootstrap_, routing_.a, base);
    std::vector<diagnosis> expected;
    std::vector<std::uint64_t> expected_epochs;
    for (std::size_t r = 0; r < 80; ++r) {
        expected.push_back(reference.push(stream_.row(r)));
        expected_epochs.push_back(reference.model_epoch());
    }
    // Launches at 5 (swap 25), queued->45, queued->65: three applied swaps.
    EXPECT_EQ(reference.refit_count(), 3u);

    for (std::size_t threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        streaming_config cfg = base;
        cfg.pool = &pool;
        streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
        for (std::size_t r = 0; r < 80; ++r) {
            const diagnosis d = diag.push(stream_.row(r));
            expect_same_diagnosis(expected[r], d, r);
            ASSERT_EQ(diag.model_epoch(), expected_epochs[r]) << "threads=" << threads
                                                              << " bin " << r;
        }
        diag.drain();
    }
}

TEST_F(StreamingFixture, QueuedRefitSurvivesCheckpointRoundTrip) {
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 5;
    cfg.swap_horizon = 20;
    cfg.mode = refit_mode::deferred;

    streaming_diagnoser live(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 12; ++r) live.push(stream_.row(r));
    ASSERT_TRUE(live.refit_pending());
    ASSERT_TRUE(live.refit_queued());

    const std::string path = temp_checkpoint_path("queued_refit.ckpt");
    save_to_file(live, path);
    streaming_diagnoser restored = [&] {
        std::ifstream in(path, std::ios::binary);
        return streaming_diagnoser::restore(in);
    }();
    EXPECT_TRUE(restored.refit_queued());

    for (std::size_t r = 12; r < 70; ++r) {
        const diagnosis a = live.push(stream_.row(r));
        const diagnosis b = restored.push(stream_.row(r));
        expect_same_diagnosis(a, b, r);
        ASSERT_EQ(restored.model_epoch(), live.model_epoch()) << "bin " << r;
    }
    EXPECT_GE(restored.refit_count(), 2u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Legacy blocking mode still behaves exactly as before.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, BlockingModeSwapsAtTheTriggerBin) {
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 10;
    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 10; ++r) diag.push(stream_.row(r));
    EXPECT_EQ(diag.refit_count(), 1u);
    EXPECT_EQ(diag.model_epoch(), 1u);
    EXPECT_FALSE(diag.refit_pending());
}

// ---------------------------------------------------------------------------
// Checkpoint portability: a committed golden fixture either replays
// bit-exactly or is rejected with a clear endianness error -- the
// host-endian format documented in ROADMAP.md, regression-tested instead
// of silently broken.
// ---------------------------------------------------------------------------

// Fully portable deterministic measurements: raw mt19937_64 output (a
// specified PRNG) mapped to doubles with exact IEEE arithmetic only -- no
// std::*_distribution, whose output is implementation-defined.
matrix golden_measurements(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    matrix y(rows, cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const double u =
                static_cast<double>(rng() >> 11) * 0x1.0p-53;  // exact, in [0, 1)
            y(r, c) = 1e6 * static_cast<double>(1 + c % 5) * (0.5 + u);
        }
    }
    return y;
}

std::string golden_fixture_path(const char* name) {
    return std::string(NETDIAG_TEST_DATA_DIR) + "/" + name;
}

std::string read_file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "missing fixture " << path
                              << " (regenerate with NETDIAG_REGEN_GOLDEN=1)";
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

constexpr std::size_t k_golden_dim = 6;
constexpr std::size_t k_golden_boot_rows = 10;
constexpr std::size_t k_golden_rank = 3;
constexpr std::size_t k_golden_prefix_bins = 8;   // folded into the fixture
constexpr std::size_t k_golden_replay_bins = 16;  // replayed by the test

TEST(GoldenCheckpoint, ReplaysBitExactlyOrRejectsForeignEndianness) {
    const std::string fixture = golden_fixture_path("golden_tracking_detector.ckpt");
    const std::string after = golden_fixture_path("golden_tracking_detector_after.ckpt");
    const matrix bins =
        golden_measurements(k_golden_prefix_bins + k_golden_replay_bins, k_golden_dim, 99);

    if (std::getenv("NETDIAG_REGEN_GOLDEN") != nullptr) {
        tracking_detector det(golden_measurements(k_golden_boot_rows, k_golden_dim, 1234),
                              k_golden_rank);
        for (std::size_t r = 0; r < k_golden_prefix_bins; ++r) det.push(bins.row(r));
        save_to_file(det, fixture);
        for (std::size_t r = k_golden_prefix_bins; r < bins.rows(); ++r) det.push(bins.row(r));
        save_to_file(det, after);
        GTEST_SKIP() << "regenerated golden fixtures in " << NETDIAG_TEST_DATA_DIR;
    }

    if constexpr (std::endian::native != std::endian::little) {
        // The committed fixtures were written on a little-endian host: a
        // big-endian build must reject them loudly, not replay garbage.
        try {
            load_from_file(fixture);
            FAIL() << "foreign-endian checkpoint was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("endianness"), std::string::npos)
                << "rejection should name the endianness mismatch, got: " << e.what();
        }
        return;
    }

    // Little-endian host: the fixture must load and replay the exact
    // detection sequence. (Bit-exactness across builds assumes IEEE
    // doubles without FMA contraction in the fold path -- true of the
    // x86-64 gcc/clang configurations CI exercises.)
    std::unique_ptr<stream_detector> restored = load_from_file(fixture);
    ASSERT_EQ(restored->dimension(), k_golden_dim);
    ASSERT_EQ(restored->processed(), k_golden_prefix_bins);
    for (std::size_t r = k_golden_prefix_bins; r < bins.rows(); ++r) {
        restored->push_bin(bins.row(r));
    }
    std::ostringstream replayed;
    restored->save(replayed);
    EXPECT_EQ(replayed.str(), read_file_bytes(after))
        << "replaying the golden checkpoint no longer reproduces the committed state; "
           "if the format or the fold arithmetic changed intentionally, regenerate with "
           "NETDIAG_REGEN_GOLDEN=1";

    // Records written while folds could run as pool tasks may hold 1 in
    // the retired "deferred updates" flag right after the header. Folds
    // give identical bits wherever they run, so the fixture with that
    // flag patched to 1 replays to the same bytes -- loaded with no pool
    // and with one.
    std::string flagged = read_file_bytes(fixture);
    std::ostringstream header;
    ckpt::write_header(header, "tracking_detector");
    const std::size_t flag_at = header.str().size();  // the flag word's low byte
    ASSERT_EQ(flagged.at(flag_at), '\0') << "committed records write 0";
    flagged[flag_at] = '\1';
    thread_pool pool(2);
    for (thread_pool* p : {static_cast<thread_pool*>(nullptr), &pool}) {
        std::istringstream in(flagged, std::ios::binary);
        std::unique_ptr<stream_detector> from_flagged = load_stream_detector(in, p);
        ASSERT_EQ(from_flagged->processed(), k_golden_prefix_bins);
        for (std::size_t r = k_golden_prefix_bins; r < bins.rows(); ++r) {
            from_flagged->push_bin(bins.row(r));
        }
        std::ostringstream flagged_replay;
        from_flagged->save(flagged_replay);
        EXPECT_EQ(flagged_replay.str(), read_file_bytes(after)) << (p ? "pooled" : "no pool");
    }
}

TEST(GoldenCheckpoint, ByteSwappedMagicIsRejectedWithAnEndiannessError) {
    // Simulates reading a checkpoint from an opposite-endian host on any
    // platform: the magic word arrives byte-reversed.
    std::ostringstream out;
    ckpt::write_header(out, "tracking_detector");
    std::string bytes = out.str();
    std::reverse(bytes.begin(), bytes.begin() + 8);

    std::istringstream in(bytes);
    try {
        ckpt::read_header(in);
        FAIL() << "byte-swapped magic was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("endianness"), std::string::npos)
            << "got: " << e.what();
    }
}

// ---------------------------------------------------------------------------
// Interchange portability: the tagged little-endian encoding loads on
// any host, including from an opposite-endian writer, and re-encoding
// round trips byte-identically (docs/CHECKPOINT_FORMAT.md).
// ---------------------------------------------------------------------------

// Simulates an opposite-endian interchange writer by walking the tagged
// token stream and reversing every 8-byte word -- exactly what a
// big-endian host that wrote words in its native order would produce.
// The tokens are self-contained ('U'/'F' word, 'S' length + raw bytes,
// 'V' count + doubles, 'W' count + words, 'M' rows + cols + doubles), so
// the walk needs no schema. Lengths are read as little-endian BEFORE their field is
// swapped; string payloads are raw bytes and stay untouched.
std::string byte_swapped_interchange(const std::string& bytes) {
    auto le64_at = [&](std::size_t pos) {
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes.at(pos + i)))
                 << (8 * i);
        }
        return v;
    };
    std::string out = bytes;
    auto swap_word = [&](std::size_t pos) {
        std::reverse(out.begin() + static_cast<std::ptrdiff_t>(pos),
                     out.begin() + static_cast<std::ptrdiff_t>(pos + 8));
    };
    swap_word(0);  // untagged magic
    std::size_t pos = 8;
    while (pos < bytes.size()) {
        // Container records nest detector records whole, inner header
        // included -- an untagged magic word may appear mid-stream.
        constexpr std::uint64_t k_interchange_magic = 0x3149434453444eull;  // "NDSDCI1"
        if (pos + 8 <= bytes.size() && le64_at(pos) == k_interchange_magic) {
            swap_word(pos);
            pos += 8;
            continue;
        }
        const char tag = bytes.at(pos++);
        switch (tag) {
            case 'U':
            case 'F':
                swap_word(pos);
                pos += 8;
                break;
            case 'S': {
                const std::uint64_t len = le64_at(pos);
                swap_word(pos);
                pos += 8 + len;
                break;
            }
            case 'V':
            case 'W': {
                const std::uint64_t count = le64_at(pos);
                swap_word(pos);
                pos += 8;
                for (std::uint64_t i = 0; i < count; ++i, pos += 8) swap_word(pos);
                break;
            }
            case 'M': {
                const std::uint64_t rows = le64_at(pos);
                const std::uint64_t cols = le64_at(pos + 8);
                swap_word(pos);
                swap_word(pos + 8);
                pos += 16;
                for (std::uint64_t i = 0; i < rows * cols; ++i, pos += 8) swap_word(pos);
                break;
            }
            default:
                ADD_FAILURE() << "unknown interchange tag '" << tag << "' at " << pos - 1;
                return out;
        }
    }
    EXPECT_EQ(pos, bytes.size()) << "interchange walk overran the record";
    return out;
}

TEST(GoldenCheckpoint, InterchangeFixturesLoadOnAnyHostIncludingByteSwapped) {
    const std::string fixture =
        golden_fixture_path("golden_tracking_detector_interchange.ckpt");
    const std::string swapped_fixture =
        golden_fixture_path("golden_tracking_detector_interchange_swapped.ckpt");
    const std::string after = golden_fixture_path("golden_tracking_detector_after.ckpt");
    const matrix bins =
        golden_measurements(k_golden_prefix_bins + k_golden_replay_bins, k_golden_dim, 99);

    if (std::getenv("NETDIAG_REGEN_GOLDEN") != nullptr) {
        // Same detector state as the native golden fixture, saved in
        // interchange -- plus the byte-swapped variant an opposite-endian
        // writer would have produced.
        tracking_detector det(golden_measurements(k_golden_boot_rows, k_golden_dim, 1234),
                              k_golden_rank);
        for (std::size_t r = 0; r < k_golden_prefix_bins; ++r) det.push(bins.row(r));
        save_to_file(det, fixture, ckpt::encoding::interchange);
        std::ofstream swapped_out(swapped_fixture, std::ios::binary);
        const std::string swapped = byte_swapped_interchange(read_file_bytes(fixture));
        swapped_out.write(swapped.data(),
                          static_cast<std::streamsize>(swapped.size()));
        GTEST_SKIP() << "regenerated interchange fixtures in " << NETDIAG_TEST_DATA_DIR;
    }

    // The committed swapped fixture is exactly the swapper's output --
    // the two fixtures are the same record in opposite byte orders.
    EXPECT_EQ(read_file_bytes(swapped_fixture),
              byte_swapped_interchange(read_file_bytes(fixture)));

    // Both byte orders load EVERYWHERE -- that is the point of the
    // encoding; no endianness gate, unlike the native fixture above.
    std::unique_ptr<stream_detector> restored = load_from_file(fixture);
    std::unique_ptr<stream_detector> from_swapped = load_from_file(swapped_fixture);
    ASSERT_EQ(restored->dimension(), k_golden_dim);
    ASSERT_EQ(restored->processed(), k_golden_prefix_bins);
    ASSERT_EQ(from_swapped->processed(), k_golden_prefix_bins);

    // Replay both; they must land in identical states on any host.
    for (std::size_t r = k_golden_prefix_bins; r < bins.rows(); ++r) {
        restored->push_bin(bins.row(r));
        from_swapped->push_bin(bins.row(r));
    }
    std::ostringstream replayed, replayed_swapped;
    restored->save(replayed);
    from_swapped->save(replayed_swapped);
    EXPECT_EQ(replayed.str(), replayed_swapped.str());

    if constexpr (std::endian::native == std::endian::little) {
        // And on the fixtures' native-matching host, the replay state is
        // the SAME state the native golden replay reaches.
        EXPECT_EQ(replayed.str(), read_file_bytes(after))
            << "interchange replay diverged from the native golden replay; regenerate "
               "with NETDIAG_REGEN_GOLDEN=1 if the format changed intentionally";
    }
}

// ---------------------------------------------------------------------------
// A streaming_diagnoser stream with its refit slots in use. The committed
// golden_streaming_diagnoser.ckpt (interchange, version 4) holds the
// stream below after its prefix bins: a refit awaits its swap and another
// is queued. The replay digest is the diagnosis sequence, every field's
// bits, that this build replays from it; the verdict digest folds only the
// alarm flags, thresholds, identified flows and epochs. The version-3
// fixture this one replaced, written from the same stream by an earlier
// build, replayed to the same verdict digest.
// ---------------------------------------------------------------------------

constexpr std::size_t k_diag_links = 6;
constexpr std::size_t k_diag_boot_rows = 24;
constexpr std::size_t k_diag_prefix_bins = 8;  // pushed before the save
constexpr std::size_t k_diag_replay_bins = 28;
constexpr std::uint64_t k_diag_replay_digest = 0x54978c194252bee4ull;
constexpr std::uint64_t k_diag_verdict_digest = 0x4f41c00ea8c8072full;

// Six links, nine flows: ring pairs, a three-link flow, a flow that
// crosses no link and a half-weighted one.
matrix diag_routing() {
    matrix a(k_diag_links, 9, 0.0);
    for (std::size_t j = 0; j < 6; ++j) {
        a(j, j) = 1.0;
        a((j + 1) % k_diag_links, j) = 1.0;
    }
    a(0, 6) = a(2, 6) = a(4, 6) = 1.0;
    a(1, 8) = a(3, 8) = 0.5;
    return a;
}

// Two exact-arithmetic patterns (a triangle wave on every link, a 3-step
// shift on links 3..5), mt19937_64 noise and a flow spike every 4th bin.
matrix diag_bins(std::size_t rows, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const matrix a = diag_routing();
    matrix y(rows, k_diag_links, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t phase = r % 8;
        const double day = 1.0 + 0.25 * static_cast<double>(phase < 4 ? phase : 8 - phase);
        const double shift = 0.5 * static_cast<double>(r % 3);
        for (std::size_t c = 0; c < k_diag_links; ++c) {
            const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
            const double level = c < 3 ? day : day + shift;
            y(r, c) = 1e6 * static_cast<double>(1 + c % 5) * (level + 0.0625 * u);
        }
        if (r % 4 == 1) {
            const std::size_t flow = r % 9;
            for (std::size_t c = 0; c < k_diag_links; ++c) y(r, c) += 4e6 * a(c, flow);
        }
    }
    return y;
}

streaming_config diag_config() {
    streaming_config cfg;
    cfg.window = 32;
    cfg.refit_interval = 4;
    cfg.confidence = 0.99;
    cfg.mode = refit_mode::deferred;
    cfg.swap_horizon = 6;
    return cfg;
}

// FNV-1a over every diagnosis field's exact bits.
std::uint64_t fold_diagnosis(std::uint64_t digest, const diagnosis& d) {
    const auto mix = [&digest](std::uint64_t v) {
        digest ^= v;
        digest *= 1099511628211ull;
    };
    mix(d.anomalous ? 1 : 0);
    mix(std::bit_cast<std::uint64_t>(d.spe));
    mix(std::bit_cast<std::uint64_t>(d.threshold));
    mix(d.flow ? *d.flow : ~std::uint64_t{0});
    mix(std::bit_cast<std::uint64_t>(d.magnitude));
    mix(std::bit_cast<std::uint64_t>(d.estimated_bytes));
    return digest;
}

struct model_block_shape {
    std::size_t axes_rows = 0;
    std::size_t axes_cols = 0;
    std::size_t projection_rows = 0;
    std::size_t projection_cols = 0;
    std::size_t normal_rank = 0;
};

// Walks a streaming_diagnoser record (docs/CHECKPOINT_FORMAT.md) through
// its header and configuration.
void skip_to_routing(std::istream& in) {
    ckpt::expect_header(in, "streaming_diagnoser");
    (void)ckpt::read_u64(in);  // window
    (void)ckpt::read_u64(in);  // refit interval
    (void)ckpt::read_f64(in);  // confidence
    (void)ckpt::read_f64(in);  // k_sigma
    (void)ckpt::read_u64(in);  // min_normal_axes
    if (ckpt::read_flag(in)) (void)ckpt::read_u64(in);  // fixed rank
    (void)ckpt::read_u64(in);  // refit mode
    (void)ckpt::read_u64(in);  // swap horizon
}

// Skips the routing block: A as per-flow runs.
void skip_routing(std::istream& in) {
    (void)ckpt::read_u64(in);  // links
    const std::vector<std::uint64_t> lengths = ckpt::read_u64_array(in);
    const std::uint64_t nonzeros = std::accumulate(lengths.begin(), lengths.end(),
                                                   std::uint64_t{0});
    EXPECT_EQ(ckpt::read_u64_array(in).size(), nonzeros);  // run links
    EXPECT_EQ(ckpt::read_vec(in).size(), nonzeros);        // run values
}

// Walks a streaming_diagnoser record to its model blocks and returns each
// block's shapes: the live model's, then the pending refit's when the
// record holds one.
std::vector<model_block_shape> model_block_shapes(const std::string& record) {
    std::istringstream in(record, std::ios::binary);
    skip_to_routing(in);
    skip_routing(in);
    const std::uint64_t window_rows = ckpt::read_u64(in);
    for (std::uint64_t r = 0; r < window_rows; ++r) (void)ckpt::read_vec(in);
    for (int counter = 0; counter < 5; ++counter) (void)ckpt::read_u64(in);

    std::vector<model_block_shape> shapes;
    const auto model_block = [&] {
        model_block_shape shape;
        const matrix axes = ckpt::read_matrix(in);
        shape.axes_rows = axes.rows();
        shape.axes_cols = axes.cols();
        (void)ckpt::read_vec(in);  // variances
        const matrix projections = ckpt::read_matrix(in);
        shape.projection_rows = projections.rows();
        shape.projection_cols = projections.cols();
        (void)ckpt::read_vec(in);  // means
        (void)ckpt::read_u64(in);  // sample count
        shape.normal_rank = ckpt::read_u64(in);
        shapes.push_back(shape);
    };
    model_block();
    if (ckpt::read_flag(in)) {
        (void)ckpt::read_u64(in);  // swap bin
        model_block();
    }
    return shapes;
}

TEST(GoldenCheckpoint, StreamingDiagnoserFixtureReplaysThroughLocalRefits) {
    const std::string fixture = golden_fixture_path("golden_streaming_diagnoser.ckpt");
    const matrix bins = diag_bins(k_diag_prefix_bins + k_diag_replay_bins, 99);
    const auto fresh_stream = [] {
        return streaming_diagnoser(diag_bins(k_diag_boot_rows, 4321), diag_routing(),
                                   diag_config());
    };

    if (std::getenv("NETDIAG_REGEN_GOLDEN") != nullptr) {
        streaming_diagnoser det = fresh_stream();
        for (std::size_t r = 0; r < k_diag_prefix_bins; ++r) (void)det.push(bins.row(r));
        ASSERT_TRUE(det.refit_pending());
        ASSERT_TRUE(det.refit_queued());
        save_to_file(det, fixture, ckpt::encoding::interchange);
        GTEST_SKIP() << "regenerated " << fixture;
    }

    {
        std::istringstream in(read_file_bytes(fixture), std::ios::binary);
        EXPECT_EQ(ckpt::read_header_info(in).version, 4u);
    }
    std::unique_ptr<stream_detector> loaded = load_from_file(fixture);
    auto& restored = dynamic_cast<streaming_diagnoser&>(*loaded);
    ASSERT_EQ(restored.processed(), k_diag_prefix_bins);
    EXPECT_TRUE(restored.refit_pending());
    EXPECT_TRUE(restored.refit_queued());
    // The record holds the live model and the pending refit's; the queued
    // window and every later trigger are fitted by this build.
    const std::uint64_t first_local_epoch = restored.model_epoch() + 2;

    // A stream that never stopped is the reference for every bin.
    streaming_diagnoser fresh = fresh_stream();
    for (std::size_t r = 0; r < k_diag_prefix_bins; ++r) (void)fresh.push(bins.row(r));

    std::uint64_t digest = 1469598103934665603ull;
    std::uint64_t verdicts = 1469598103934665603ull;
    const auto mix = [&verdicts](std::uint64_t v) {
        verdicts ^= v;
        verdicts *= 1099511628211ull;
    };
    std::size_t alarms = 0;
    for (std::size_t r = k_diag_prefix_bins; r < bins.rows(); ++r) {
        const diagnosis d = restored.push(bins.row(r));
        expect_same_diagnosis(fresh.push(bins.row(r)), d, r);
        EXPECT_EQ(restored.model_epoch(), fresh.model_epoch()) << "bin " << r;
        alarms += d.anomalous ? 1 : 0;
        digest = fold_diagnosis(digest, d);
        mix(d.anomalous ? 1 : 0);
        mix(std::bit_cast<std::uint64_t>(d.threshold));
        mix(d.flow ? *d.flow : ~std::uint64_t{0});
        mix(restored.model_epoch());
    }
    EXPECT_GE(restored.model_epoch(), first_local_epoch + 1)
        << "the replay must run refits this build fits";
    EXPECT_EQ(restored.model_epoch(), 5u);
    EXPECT_EQ(alarms, 4u);
    EXPECT_EQ(verdicts, k_diag_verdict_digest)
        << std::hex << verdicts
        << ": the golden record no longer replays to the same alarms, thresholds, flows and "
           "epochs";
    EXPECT_EQ(digest, k_diag_replay_digest)
        << std::hex << digest << ": the golden record no longer replays to the same diagnoses";
}

TEST(StreamingCheckpoint, FreshRecordsWriteAnEmptyProjectionsSlot) {
    streaming_diagnoser det(diag_bins(k_diag_boot_rows, 4321), diag_routing(),
                            diag_config());
    const matrix bins = diag_bins(k_diag_prefix_bins, 99);
    for (std::size_t r = 0; r < bins.rows(); ++r) det.push(bins.row(r));
    ASSERT_TRUE(det.refit_pending());
    for (const ckpt::encoding enc : {ckpt::encoding::native, ckpt::encoding::interchange}) {
        std::ostringstream out(std::ios::binary);
        ckpt::set_encoding(out, enc);
        det.save(out);
        const auto shapes = model_block_shapes(out.str());
        ASSERT_EQ(shapes.size(), 2u);
        for (const model_block_shape& shape : shapes) {
            EXPECT_EQ(shape.projection_rows, 0u);
            EXPECT_EQ(shape.projection_cols, 0u);
        }
    }
}

// A served model keeps the normal axes and the one axis at which the
// 3-sigma walk stopped, and its record holds exactly those: m x (r + 1).
TEST(StreamingCheckpoint, FreshRecordsKeepOnlyTheAxesTheWalkRead) {
    streaming_diagnoser det(diag_bins(k_diag_boot_rows, 4321), diag_routing(),
                            diag_config());
    const matrix bins = diag_bins(k_diag_prefix_bins, 99);
    for (std::size_t r = 0; r < bins.rows(); ++r) det.push(bins.row(r));
    ASSERT_TRUE(det.refit_pending());
    std::ostringstream out(std::ios::binary);
    det.save(out);
    const auto shapes = model_block_shapes(out.str());
    ASSERT_EQ(shapes.size(), 2u);
    for (const model_block_shape& shape : shapes) {
        EXPECT_EQ(shape.axes_rows, k_diag_links);
        EXPECT_EQ(shape.axes_cols, std::min(shape.normal_rank + 1, k_diag_links));
        EXPECT_LT(shape.axes_cols, k_diag_links);
    }
    // And the record restores into the same verdicts.
    std::istringstream in(out.str(), std::ios::binary);
    streaming_diagnoser restored = streaming_diagnoser::restore(in);
    const matrix more = diag_bins(k_diag_prefix_bins + 12, 99);
    for (std::size_t r = k_diag_prefix_bins; r < more.rows(); ++r) {
        const diagnosis a = det.push(more.row(r));
        const diagnosis b = restored.push(more.row(r));
        EXPECT_EQ(fold_diagnosis(0, a), fold_diagnosis(0, b)) << "bin " << r;
    }
}

// A record carries A as per-flow runs, and restoring it builds the
// routing terms straight from them: save, restore and save again give the
// same bytes, with a refit pending and another queued, in both encodings.
// The golden fixture's routing block holds the same runs.
TEST(StreamingCheckpoint, RunRecordsRoundTripByteForByte) {
    streaming_diagnoser det(diag_bins(k_diag_boot_rows, 4321), diag_routing(),
                            diag_config());
    const matrix bins = diag_bins(k_diag_prefix_bins + 6, 99);
    for (std::size_t r = 0; r < bins.rows(); ++r) det.push(bins.row(r));
    ASSERT_TRUE(det.refit_pending());
    ASSERT_TRUE(det.refit_queued());
    for (const ckpt::encoding enc : {ckpt::encoding::native, ckpt::encoding::interchange}) {
        std::ostringstream first(std::ios::binary);
        ckpt::set_encoding(first, enc);
        det.save(first);
        const std::string bytes = std::move(first).str();
        std::istringstream header(bytes, std::ios::binary);
        EXPECT_EQ(ckpt::read_header_info(header).version, 4u);
        EXPECT_EQ(model_block_shapes(bytes).size(), 2u);

        std::istringstream in(bytes, std::ios::binary);
        streaming_diagnoser restored = streaming_diagnoser::restore(in);
        std::ostringstream second(std::ios::binary);
        ckpt::set_encoding(second, enc);
        restored.save(second);
        EXPECT_EQ(std::move(second).str(), bytes) << static_cast<int>(enc);
    }
    {
        // An opposite-endian writer's record, u64 arrays included, loads
        // and saves back as the conforming bytes.
        std::ostringstream out(std::ios::binary);
        ckpt::set_encoding(out, ckpt::encoding::interchange);
        det.save(out);
        const std::string bytes = std::move(out).str();
        std::istringstream in(byte_swapped_interchange(bytes), std::ios::binary);
        streaming_diagnoser restored = streaming_diagnoser::restore(in);
        std::ostringstream again(std::ios::binary);
        ckpt::set_encoding(again, ckpt::encoding::interchange);
        restored.save(again);
        EXPECT_EQ(std::move(again).str(), bytes);
    }

    // The committed fixture, resaved natively, holds the runs a fresh
    // stream writes.
    std::unique_ptr<stream_detector> golden =
        load_from_file(golden_fixture_path("golden_streaming_diagnoser.ckpt"));
    std::ostringstream resaved(std::ios::binary);
    golden->save(resaved);
    std::ostringstream fresh(std::ios::binary);
    det.save(fresh);
    const auto routing_block = [](const std::string& record) {
        std::istringstream in(record, std::ios::binary);
        skip_to_routing(in);
        const auto begin = static_cast<std::size_t>(in.tellg());
        skip_routing(in);
        return record.substr(begin, static_cast<std::size_t>(in.tellg()) - begin);
    };
    EXPECT_EQ(routing_block(resaved.str()), routing_block(fresh.str()));
}

TEST(GoldenCheckpoint, ReencodingRoundTripsByteIdentically) {
    if (std::getenv("NETDIAG_REGEN_GOLDEN") != nullptr) {
        GTEST_SKIP() << "fixtures being regenerated";
    }
    if constexpr (std::endian::native != std::endian::little) {
        GTEST_SKIP() << "native fixtures are little-endian";
    }
    const std::string native_bytes =
        read_file_bytes(golden_fixture_path("golden_tracking_detector.ckpt"));
    const std::string interchange_bytes =
        read_file_bytes(golden_fixture_path("golden_tracking_detector_interchange.ckpt"));
    // Loads a record (either encoding) and saves it again in `target`.
    const auto reencode = [](const std::string& bytes, ckpt::encoding target) {
        std::istringstream in(bytes, std::ios::binary);
        const std::unique_ptr<stream_detector> detector = load_stream_detector(in);
        std::ostringstream out(std::ios::binary);
        ckpt::set_encoding(out, target);
        detector->save(out);
        return std::move(out).str();
    };

    // native -> interchange reproduces the committed interchange fixture
    // (same state, same deterministic encoder) ...
    const std::string to_interchange = reencode(native_bytes, ckpt::encoding::interchange);
    EXPECT_EQ(to_interchange, interchange_bytes);

    // ... and interchange -> native reproduces the original bytes.
    EXPECT_EQ(reencode(to_interchange, ckpt::encoding::native), native_bytes);
}

// ---------------------------------------------------------------------------
// Hostile headers: sizes are validated against the actual stream length
// BEFORE any allocation (the 2^60-bin regression).
// ---------------------------------------------------------------------------

TEST(StreamCheckpoint, HeaderSizeLiesFailBeforeAllocation) {
    const auto expect_throws_with = [](const std::string& bytes, bool interchange,
                                       const char* needle, const char* what) {
        std::istringstream in(bytes, std::ios::binary);
        if (interchange) ckpt::set_encoding(in, ckpt::encoding::interchange);
        try {
            (void)ckpt::read_vec(in);
            FAIL() << what << ": a lying header was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << what << ": got \"" << e.what() << "\"";
        }
    };
    const auto le64 = [](std::uint64_t v) {
        std::string b(8, '\0');
        for (std::size_t i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
        return b;
    };

    // A header claiming 2^60 bins trips the absolute cap -- no allocation
    // is ever attempted.
    expect_throws_with(std::string("V") + le64(1ull << 60), true, "too large",
                       "interchange 2^60-element vector");

    // A claim UNDER the cap but over the bytes actually present trips the
    // remaining-input validation -- the distinct new check.
    expect_throws_with(std::string("V") + le64(1u << 20) + std::string(64, '\0'), true,
                       "exceeds remaining input", "interchange over-length vector");

    // Same validation on the native path.
    std::string native_lie = le64(1u << 20);  // native u64 count on an LE host
    if constexpr (std::endian::native != std::endian::little) {
        std::reverse(native_lie.begin(), native_lie.end());
    }
    expect_throws_with(native_lie + std::string(64, '\0'), false,
                       "exceeds remaining input", "native over-length vector");

    // Matrices: absolute cap and remaining-input check both hold.
    {
        std::istringstream in(std::string("M") + le64(1ull << 60) + le64(4),
                              std::ios::binary);
        ckpt::set_encoding(in, ckpt::encoding::interchange);
        EXPECT_THROW((void)ckpt::read_matrix(in), std::runtime_error);
    }
    {
        std::istringstream in(
            std::string("M") + le64(1000) + le64(1000) + std::string(128, '\0'),
            std::ios::binary);
        ckpt::set_encoding(in, ckpt::encoding::interchange);
        try {
            (void)ckpt::read_matrix(in);
            FAIL() << "over-length matrix was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("exceeds remaining input"),
                      std::string::npos)
                << "got: " << e.what();
        }
    }

    // Strings too: a length lie inside a record (e.g. a type tag) fails
    // the same way through the full loader.
    {
        std::ostringstream rec(std::ios::binary);
        ckpt::set_encoding(rec, ckpt::encoding::interchange);
        ckpt::write_header(rec, "tracking_detector");
        std::string bytes = std::move(rec).str();
        // Header layout: 8-byte magic, 'U' + 8-byte version, then the
        // type tag's 'S' token at 17 with its length field at 18. Lie in
        // the length without adding bytes.
        constexpr std::size_t len_pos = 8 + 1 + 8 + 1;
        ASSERT_EQ(bytes.at(len_pos - 1), 'S');
        bytes.replace(len_pos, 8, le64(1u << 19));
        std::istringstream in(bytes, std::ios::binary);
        try {
            (void)ckpt::read_header_info(in);
            FAIL() << "string length lie was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("exceeds remaining input"),
                      std::string::npos)
                << "got: " << e.what();
        }
    }
}

}  // namespace
}  // namespace netdiag
