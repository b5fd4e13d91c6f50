#include "subspace/online.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "engine/thread_pool.h"
#include "linalg/ops.h"
#include "measurement/link_loads.h"
#include "topology/builders.h"
#include "topology/routing.h"

namespace netdiag {
namespace {

class OnlineFixture : public ::testing::Test {
protected:
    void SetUp() override {
        topo_ = make_abilene();
        routing_ = build_routing(topo_);
        const std::size_t n = routing_.flow_count();

        std::mt19937_64 rng(2024);
        std::normal_distribution<double> gauss(0.0, 1.0);
        const std::size_t t_total = 720;
        matrix x(n, t_total, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            const double mean = 1e6 * (1.0 + static_cast<double>(j % 13));
            for (std::size_t ti = 0; ti < t_total; ++ti) {
                const double diurnal =
                    1.0 + 0.4 * std::sin(2.0 * 3.14159265 * static_cast<double>(ti) / 144.0);
                x(j, ti) = std::max(0.0, mean * diurnal + 0.03 * mean * gauss(rng));
            }
        }
        const matrix y_full = link_loads_from_flows(routing_.a, x);

        // First 432 bins bootstrap the model; the rest stream in.
        bootstrap_.assign(432, y_full.cols());
        for (std::size_t r = 0; r < 432; ++r) bootstrap_.set_row(r, y_full.row(r));
        stream_.assign(t_total - 432, y_full.cols());
        for (std::size_t r = 432; r < t_total; ++r) {
            stream_.set_row(r - 432, y_full.row(r));
        }
    }

    topology topo_{"unset"};
    routing_result routing_;
    matrix bootstrap_;
    matrix stream_;
};

TEST_F(OnlineFixture, CleanStreamRaisesFewAlarms) {
    streaming_config cfg;
    cfg.refit_interval = 0;  // fixed model
    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < stream_.rows(); ++r) diag.push(stream_.row(r));
    EXPECT_EQ(diag.processed(), stream_.rows());
    EXPECT_LE(diag.alarm_count(), stream_.rows() / 20);
}

TEST_F(OnlineFixture, InjectedSpikeIsDiagnosedInline) {
    streaming_config cfg;
    cfg.refit_interval = 0;
    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);

    const std::size_t flow = routing_.flow_index(3, 9);
    bool hit = false;
    for (std::size_t r = 0; r < stream_.rows(); ++r) {
        vec y(stream_.row(r).begin(), stream_.row(r).end());
        if (r == 100) axpy(1.5e8, routing_.a.column(flow), y);
        const diagnosis d = diag.push(y);
        if (r == 100) {
            hit = d.anomalous && d.flow && *d.flow == flow;
        }
    }
    EXPECT_TRUE(hit);
}

TEST_F(OnlineFixture, RefitsHappenOnSchedule) {
    streaming_config cfg;
    cfg.refit_interval = 50;
    cfg.window = 432;
    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 120; ++r) diag.push(stream_.row(r % stream_.rows()));
    EXPECT_EQ(diag.refit_count(), 2u);
}

TEST_F(OnlineFixture, TinyWindowRejected) {
    streaming_config cfg;
    cfg.window = 1;
    EXPECT_THROW(streaming_diagnoser(bootstrap_, routing_.a, cfg), std::invalid_argument);
}

TEST_F(OnlineFixture, SwapHorizonAboveWindowRejected) {
    // The fit reads the window in place while the pusher fills the
    // horizon's spare ring slots, so the horizon may not exceed the window.
    streaming_config cfg;
    cfg.window = 10;
    cfg.swap_horizon = 11;
    EXPECT_THROW(streaming_diagnoser(bootstrap_, routing_.a, cfg), std::invalid_argument);
    cfg.swap_horizon = 10;
    EXPECT_NO_THROW(streaming_diagnoser(bootstrap_, routing_.a, cfg));
}

TEST_F(OnlineFixture, PooledRefitsMatchSerialBitForBit) {
    // Routing refits through the engine must not change a single bit of
    // any diagnosis, before or after the refit fires.
    thread_pool pool(4);
    streaming_config serial_cfg;
    serial_cfg.refit_interval = 40;
    serial_cfg.window = 432;
    streaming_config pooled_cfg = serial_cfg;
    pooled_cfg.pool = &pool;

    streaming_diagnoser serial(bootstrap_, routing_.a, serial_cfg);
    streaming_diagnoser pooled(bootstrap_, routing_.a, pooled_cfg);
    for (std::size_t r = 0; r < 100; ++r) {
        const diagnosis a = serial.push(stream_.row(r));
        const diagnosis b = pooled.push(stream_.row(r));
        ASSERT_EQ(b.anomalous, a.anomalous) << "r=" << r;
        ASSERT_EQ(b.spe, a.spe) << "r=" << r;
        ASSERT_EQ(b.threshold, a.threshold) << "r=" << r;
        ASSERT_EQ(b.flow.has_value(), a.flow.has_value()) << "r=" << r;
        if (a.flow) {
            ASSERT_EQ(*b.flow, *a.flow) << "r=" << r;
        }
        ASSERT_EQ(b.magnitude, a.magnitude) << "r=" << r;
        ASSERT_EQ(b.estimated_bytes, a.estimated_bytes) << "r=" << r;
    }
    EXPECT_EQ(serial.refit_count(), 2u);
    EXPECT_EQ(pooled.refit_count(), 2u);
}

TEST_F(OnlineFixture, TrackerMatchesBatchVarianceSpectrum) {
    const std::size_t rank = 8;
    incremental_pca_tracker tracker(bootstrap_, rank);
    for (std::size_t r = 0; r < stream_.rows(); ++r) tracker.push(stream_.row(r));

    // Batch PCA over everything.
    matrix all(bootstrap_.rows() + stream_.rows(), bootstrap_.cols());
    for (std::size_t r = 0; r < bootstrap_.rows(); ++r) all.set_row(r, bootstrap_.row(r));
    for (std::size_t r = 0; r < stream_.rows(); ++r) {
        all.set_row(bootstrap_.rows() + r, stream_.row(r));
    }
    const pca_model batch = fit_pca(all);

    const vec tracked = tracker.axis_variance();
    ASSERT_GE(tracked.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        // The quasi-static-mean approximation costs a few percent.
        EXPECT_NEAR(tracked[i], batch.axis_variance[i], 0.15 * batch.axis_variance[i])
            << "axis " << i;
    }
}

TEST_F(OnlineFixture, TrackerTopAxisAlignsWithBatch) {
    incremental_pca_tracker tracker(bootstrap_, 6);
    for (std::size_t r = 0; r < stream_.rows(); ++r) tracker.push(stream_.row(r));

    matrix all(bootstrap_.rows() + stream_.rows(), bootstrap_.cols());
    for (std::size_t r = 0; r < bootstrap_.rows(); ++r) all.set_row(r, bootstrap_.row(r));
    for (std::size_t r = 0; r < stream_.rows(); ++r) {
        all.set_row(bootstrap_.rows() + r, stream_.row(r));
    }
    const pca_model batch = fit_pca(all);

    const vec v_tracked = tracker.axes().column(0);
    const vec v_batch = batch.principal_axes.column(0);
    EXPECT_GT(std::abs(dot(v_tracked, v_batch)), 0.98);
}

TEST_F(OnlineFixture, TrackerCountsSamples) {
    incremental_pca_tracker tracker(bootstrap_, 4);
    EXPECT_EQ(tracker.sample_count(), bootstrap_.rows());
    tracker.push(stream_.row(0));
    EXPECT_EQ(tracker.sample_count(), bootstrap_.rows() + 1);
    EXPECT_EQ(tracker.rank(), 4u);
}

TEST_F(OnlineFixture, TrackerValidation) {
    EXPECT_THROW(incremental_pca_tracker(matrix(1, 4, 0.0), 2), std::invalid_argument);
    EXPECT_THROW(incremental_pca_tracker(bootstrap_, 0), std::invalid_argument);
    incremental_pca_tracker tracker(bootstrap_, 4);
    const vec bad(bootstrap_.cols() + 1, 0.0);
    EXPECT_THROW(tracker.push(bad), std::invalid_argument);
}

}  // namespace
}  // namespace netdiag
