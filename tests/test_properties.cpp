// Parameterized property sweeps across random seeds and parameters:
// invariants of the subspace method that must hold for *any* realization
// of the traffic model, not just the preset datasets.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "measurement/dataset.h"
#include "serve/stream_server.h"
#include "subspace/detectability.h"
#include "subspace/diagnoser.h"
#include "topology/builders.h"

namespace netdiag {
namespace {

dataset small_dataset(std::uint64_t seed, double noise_rel = 0.04) {
    dataset_config cfg;
    cfg.name = "prop";
    cfg.gravity.total_mean_bytes_per_bin = 3.0e8;
    cfg.gravity.seed = seed * 3 + 1;
    cfg.traffic.bins = 432;  // three days: enough diurnal cycles for PCA
    cfg.traffic.seed = seed;
    cfg.traffic.anomaly_count = 0;  // properties control their own anomalies
    cfg.traffic.white_sigma_rel = noise_rel;
    cfg.sampling = sampling_kind::none;
    return build_dataset(make_abilene(), cfg);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, ResidualDecompositionIsExact) {
    const dataset ds = small_dataset(GetParam());
    const subspace_model model = subspace_model::fit(ds.link_loads);
    for (std::size_t t = 0; t < ds.bin_count(); t += 97) {
        const auto y = ds.link_loads.row(t);
        const vec resid = model.residual(y);
        const vec modeled = model.modeled(y);
        const vec centered = subtract(y, model.pca().column_means);
        for (std::size_t i = 0; i < centered.size(); ++i) {
            EXPECT_NEAR(resid[i] + modeled[i], centered[i], 1e-6)
                << "seed " << GetParam() << " t " << t;
        }
    }
}

TEST_P(SeedSweep, CleanTrafficFalseAlarmRateIsLow) {
    const dataset ds = small_dataset(GetParam());
    const subspace_model model = subspace_model::fit(ds.link_loads);
    const spe_detector det(model, 0.999);
    std::size_t alarms = 0;
    for (std::size_t t = 0; t < ds.bin_count(); ++t) {
        if (det.test(ds.link_loads.row(t)).anomalous) ++alarms;
    }
    // 99.9% confidence on clean traffic: expect well under 2% flagged.
    EXPECT_LT(static_cast<double>(alarms) / static_cast<double>(ds.bin_count()), 0.02)
        << "seed " << GetParam();
}

TEST_P(SeedSweep, InjectedSpikeAboveDetectabilityThresholdIsAlwaysCaught) {
    const dataset ds = small_dataset(GetParam());
    const volume_anomaly_diagnoser diag(ds.link_loads, ds.routing.a, 0.999);
    const auto thresholds = detectability_thresholds(diag.model(), ds.routing.a, 0.999);

    // Inject on top of the column means (residual-free baseline): the
    // sufficient condition of Section 5.4 guarantees detection.
    for (std::size_t j = 0; j < ds.routing.flow_count(); j += 17) {
        vec y = diag.model().pca().column_means;
        axpy(1.1 * thresholds[j].min_detectable_bytes, ds.routing.a.column(j), y);
        EXPECT_TRUE(diag.diagnose(y).anomalous) << "seed " << GetParam() << " flow " << j;
    }
}

TEST_P(SeedSweep, IdentificationNamesTheInjectedFlow) {
    const dataset ds = small_dataset(GetParam());
    const volume_anomaly_diagnoser diag(ds.link_loads, ds.routing.a, 0.999);

    std::size_t correct = 0;
    std::size_t total = 0;
    for (std::size_t j = 3; j < ds.routing.flow_count(); j += 11) {
        vec y(ds.link_loads.row(200).begin(), ds.link_loads.row(200).end());
        axpy(2.0e8, ds.routing.a.column(j), y);
        const diagnosis d = diag.diagnose(y);
        ++total;
        if (d.anomalous && d.flow && *d.flow == j) ++correct;
    }
    EXPECT_GE(static_cast<double>(correct) / static_cast<double>(total), 0.8)
        << "seed " << GetParam();
}

TEST_P(SeedSweep, QuantificationWithinFactorOfTwo) {
    const dataset ds = small_dataset(GetParam());
    const volume_anomaly_diagnoser diag(ds.link_loads, ds.routing.a, 0.999);
    const double bytes = 2.5e8;
    std::size_t within = 0;
    std::size_t total = 0;
    for (std::size_t j = 5; j < ds.routing.flow_count(); j += 13) {
        vec y(ds.link_loads.row(150).begin(), ds.link_loads.row(150).end());
        axpy(bytes, ds.routing.a.column(j), y);
        const diagnosis d = diag.diagnose(y);
        if (!(d.anomalous && d.flow && *d.flow == j)) continue;
        ++total;
        if (std::abs(d.estimated_bytes) > 0.5 * bytes &&
            std::abs(d.estimated_bytes) < 2.0 * bytes) {
            ++within;
        }
    }
    ASSERT_GT(total, 0u) << "seed " << GetParam();
    EXPECT_EQ(within, total) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1, 2, 3, 5, 8, 13));

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, NormalRankStaysSmallAcrossNoiseLevels) {
    const dataset ds = small_dataset(42, GetParam());
    const subspace_model model = subspace_model::fit(ds.link_loads);
    EXPECT_LE(model.normal_rank(), 10u) << "noise " << GetParam();
}

TEST_P(NoiseSweep, ThresholdGrowsWithNoise) {
    const dataset quiet = small_dataset(7, 0.01);
    const dataset loud = small_dataset(7, GetParam());
    separation_config sep;
    sep.fixed_rank = 4;  // compare thresholds at equal rank
    const subspace_model mq = subspace_model::fit(quiet.link_loads, sep);
    const subspace_model ml = subspace_model::fit(loud.link_loads, sep);
    if (GetParam() > 0.01) {
        EXPECT_GT(ml.q_threshold(0.999), mq.q_threshold(0.999)) << "noise " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoiseSweep, ::testing::Values(0.02, 0.05, 0.08, 0.12));

class ConfidenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConfidenceSweep, AlarmCountDecreasesWithConfidence) {
    const dataset ds = small_dataset(99);
    const subspace_model model = subspace_model::fit(ds.link_loads);
    const spe_detector loose(model, 0.95);
    const spe_detector tight(model, GetParam());
    std::size_t loose_alarms = 0, tight_alarms = 0;
    for (std::size_t t = 0; t < ds.bin_count(); ++t) {
        if (loose.test(ds.link_loads.row(t)).anomalous) ++loose_alarms;
        if (tight.test(ds.link_loads.row(t)).anomalous) ++tight_alarms;
    }
    EXPECT_LE(tight_alarms, loose_alarms) << "confidence " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Confidences, ConfidenceSweep,
                         ::testing::Values(0.99, 0.995, 0.999, 0.9999));

// ---------------------------------------------------------------------------
// Multi-stream server invariants: randomized (seeded) push sequences that
// must hold for any interleaving the server is handed, any mix of stream
// kinds, and any pool size.
// ---------------------------------------------------------------------------

// FNV-1a over the exact output bits: two streams producing the same
// digest saw bit-identical (anomalous, spe, threshold) sequences.
std::uint64_t fold_detection(std::uint64_t digest, const detection_result& d) {
    const auto mix = [&digest](std::uint64_t v) {
        digest ^= v;
        digest *= 1099511628211ull;
    };
    mix(d.anomalous ? 1 : 0);
    mix(std::bit_cast<std::uint64_t>(d.spe));
    mix(std::bit_cast<std::uint64_t>(d.threshold));
    return digest;
}

class ServerSeedSweep : public ::testing::TestWithParam<std::uint64_t> {
protected:
    static constexpr std::size_t k_boot = 72;

    void SetUp() override { ds_ = small_dataset(GetParam()); }

    matrix bootstrap(std::size_t offset) const {
        matrix out(k_boot, ds_.link_loads.cols());
        for (std::size_t r = 0; r < k_boot; ++r) {
            out.set_row(r, ds_.link_loads.row(offset + r));
        }
        return out;
    }

    stream_open_config make_config(std::size_t s) const {
        stream_open_config cfg;
        cfg.bootstrap_y = bootstrap(s * 11 % 100);
        switch (s % 3) {
            case 0:
                cfg.kind = stream_kind::diagnoser;
                cfg.a = ds_.routing.a;
                cfg.streaming.window = k_boot;
                cfg.streaming.refit_interval = 13;
                cfg.streaming.swap_horizon = 5;
                cfg.streaming.mode = refit_mode::deferred;
                break;
            case 1:
                cfg.kind = stream_kind::tracking;
                cfg.max_rank = 7;
                break;
            default:
                cfg.kind = stream_kind::tracking;
                cfg.max_rank = 5;
                break;
        }
        return cfg;
    }

    dataset ds_;
};

TEST_P(ServerSeedSweep, BinCountsConservedAndEpochsMonotonePerStream) {
    constexpr std::size_t k_streams = 6;
    stream_server server({.threads = 2});

    std::vector<stream_id> ids;
    std::vector<std::size_t> pushed(k_streams, 0);
    std::vector<std::uint64_t> last_epoch(k_streams, 0);
    for (std::size_t s = 0; s < k_streams; ++s) ids.push_back(server.open_stream(make_config(s)));

    std::mt19937_64 rng(GetParam() * 7919 + 17);
    std::vector<std::size_t> cursors(k_streams, k_boot);
    for (std::size_t step = 0; step < 300; ++step) {
        const std::size_t s = rng() % k_streams;
        const std::size_t row = cursors[s];
        cursors[s] = row + 1 < ds_.bin_count() ? row + 1 : k_boot;
        if (rng() % 2 == 0) {
            ASSERT_TRUE(server.ingest(ids[s], ds_.link_loads.row(row)).ok());
        } else {
            const std::span<const double> bin[] = {ds_.link_loads.row(row)};
            ASSERT_TRUE(server.ingest_batch(ids[s], bin).ok());
        }
        server.flush_stream(ids[s]);
        ++pushed[s];

        // Epochs never move backwards, and only maintenance can move them
        // forwards.
        const std::uint64_t epoch = server.stats(ids[s]).epoch;
        EXPECT_GE(epoch, last_epoch[s]) << "seed " << GetParam() << " step " << step;
        last_epoch[s] = epoch;
    }

    server.drain_all();
    for (std::size_t s = 0; s < k_streams; ++s) {
        const stream_server::stream_stats st = server.stats(ids[s]);
        EXPECT_EQ(st.processed, pushed[s]) << "seed " << GetParam() << " stream " << s;
        EXPECT_LE(st.alarms, st.processed) << "seed " << GetParam() << " stream " << s;
        EXPECT_EQ(st.dimension, ds_.link_loads.cols());
    }
}

TEST_P(ServerSeedSweep, ClosingOneStreamNeverPerturbsAnother) {
    // Two identical runs of a seeded interleaving over three streams; in
    // the second run the middle stream is closed partway through. The
    // surviving streams' output digests must match the first run exactly.
    const auto run = [&](bool close_midway) {
        stream_server server({.threads = 2});
        std::vector<std::uint64_t> digests(3, 1469598103934665603ull);  // FNV offset
        std::vector<stream_id> ids;
        for (std::size_t s = 0; s < 3; ++s) {
            stream_open_config cfg = make_config(s);
            cfg.ingest.sink = [&digests, s](std::uint64_t, const detection_result& d) {
                digests[s] = fold_detection(digests[s], d);
            };
            ids.push_back(server.open_stream(std::move(cfg)));
        }

        std::vector<std::size_t> cursors(3, k_boot);
        std::mt19937_64 rng(GetParam() + 5);
        bool closed = false;
        for (std::size_t step = 0; step < 240; ++step) {
            if (close_midway && !closed && step == 120) {
                server.close_stream(ids[1]);
                closed = true;
            }
            const std::size_t s = rng() % 3;
            if (s == 1 && closed) continue;  // same rng draws either way
            const std::size_t row = cursors[s];
            cursors[s] = row + 1 < ds_.bin_count() ? row + 1 : k_boot;
            EXPECT_TRUE(server.ingest(ids[s], ds_.link_loads.row(row)).ok());
            server.flush_stream(ids[s]);
        }
        server.drain_all();
        return digests;
    };

    const std::vector<std::uint64_t> uninterrupted = run(false);
    const std::vector<std::uint64_t> with_close = run(true);
    EXPECT_EQ(with_close[0], uninterrupted[0]) << "seed " << GetParam();
    EXPECT_EQ(with_close[2], uninterrupted[2]) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ServerSeeds, ServerSeedSweep, ::testing::Values(11, 23, 37));

}  // namespace
}  // namespace netdiag
