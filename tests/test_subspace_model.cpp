#include "subspace/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

#include "linalg/ops.h"
#include "subspace/detector.h"

namespace netdiag {
namespace {

// Strongly structured data: two dominant shared trends + per-column noise.
matrix structured_data(std::size_t t, std::size_t m, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    matrix y(t, m, 0.0);
    for (std::size_t r = 0; r < t; ++r) {
        const double trend1 = std::sin(2.0 * 3.14159265 * static_cast<double>(r) / 144.0);
        const double trend2 = std::cos(2.0 * 3.14159265 * static_cast<double>(r) / 72.0);
        for (std::size_t c = 0; c < m; ++c) {
            const double w1 = 1.0 + 0.1 * static_cast<double>(c);
            const double w2 = 2.0 - 0.05 * static_cast<double>(c);
            y(r, c) = 100.0 + 30.0 * w1 * trend1 + 10.0 * w2 * trend2 + 0.5 * gauss(rng);
        }
    }
    return y;
}

TEST(SubspaceModel, DenseResidualProjectorIsSymmetricIdempotent) {
    const matrix y = structured_data(400, 8, 1);
    const subspace_model model(fit_pca(y), 3);
    const matrix ct = model.dense_residual_projector();
    EXPECT_TRUE(approx_equal(ct, transpose(ct), 1e-10));
    EXPECT_TRUE(approx_equal(multiply(ct, ct), ct, 1e-9));
}

TEST(SubspaceModel, LowRankResidualMatchesDenseProjector) {
    // The low-rank x - P (P^T x) path must reproduce the dense C~ x result
    // it replaced, across ranks, to well below detection tolerances.
    const matrix y = structured_data(400, 8, 21);
    const pca_model pca = fit_pca(y);
    for (std::size_t rank : {0u, 1u, 3u, 8u}) {
        const subspace_model model(pca, rank);
        const matrix ct = model.dense_residual_projector();
        for (std::size_t r = 0; r < y.rows(); r += 97) {
            const vec centered = subtract(y.row(r), pca.column_means);
            const vec lowrank = model.project_direction_residual(centered);
            const vec dense = multiply(ct, centered);
            ASSERT_EQ(lowrank.size(), dense.size());
            for (std::size_t i = 0; i < dense.size(); ++i) {
                EXPECT_NEAR(lowrank[i], dense[i], 1e-9) << "rank=" << rank << " row=" << r;
            }
        }
    }
}

TEST(SubspaceModel, ProjectorAnnihilatesNormalAxes) {
    const matrix y = structured_data(300, 6, 2);
    const pca_model pca = fit_pca(y);
    const subspace_model model(pca, 2);
    for (std::size_t i = 0; i < 2; ++i) {
        const vec v = pca.principal_axes.column(i);
        const vec proj = model.project_direction_residual(v);
        EXPECT_NEAR(norm(proj), 0.0, 1e-9) << "normal axis " << i;
    }
    for (std::size_t i = 2; i < 6; ++i) {
        const vec v = pca.principal_axes.column(i);
        const vec proj = model.project_direction_residual(v);
        EXPECT_NEAR(norm(proj), 1.0, 1e-9) << "anomalous axis " << i;
    }
}

TEST(SubspaceModel, ResidualPlusModeledEqualsCentered) {
    const matrix y = structured_data(200, 5, 3);
    const subspace_model model = subspace_model::fit(y);
    const auto row = y.row(17);
    const vec resid = model.residual(row);
    const vec modeled = model.modeled(row);
    const vec centered = subtract(row, model.pca().column_means);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_NEAR(resid[i] + modeled[i], centered[i], 1e-9);
    }
}

TEST(SubspaceModel, ResidualOrthogonalToModeled) {
    const matrix y = structured_data(200, 5, 4);
    const subspace_model model = subspace_model::fit(y);
    const auto row = y.row(42);
    EXPECT_NEAR(dot(model.residual(row), model.modeled(row)), 0.0, 1e-7);
}

TEST(SubspaceModel, SpeSeriesMatchesPerRow) {
    const matrix y = structured_data(100, 4, 5);
    const subspace_model model = subspace_model::fit(y);
    const vec series = model.spe_series(y);
    ASSERT_EQ(series.size(), 100u);
    for (std::size_t r = 0; r < 100; r += 13) {
        EXPECT_NEAR(series[r], model.spe(y.row(r)), 1e-12);
    }
}

TEST(SubspaceModel, FullRankMakesResidualZero) {
    const matrix y = structured_data(100, 4, 6);
    const subspace_model model(fit_pca(y), 4);
    EXPECT_NEAR(model.spe(y.row(10)), 0.0, 1e-10);
}

TEST(SubspaceModel, ZeroRankKeepsEverything) {
    const matrix y = structured_data(100, 4, 7);
    const subspace_model model(fit_pca(y), 0);
    const auto row = y.row(33);
    const vec centered = subtract(row, model.pca().column_means);
    EXPECT_NEAR(model.spe(row), norm_squared(centered), 1e-9);
}

TEST(SubspaceModel, RankExceedingDimensionThrows) {
    const matrix y = structured_data(50, 3, 8);
    EXPECT_THROW(subspace_model(fit_pca(y), 4), std::invalid_argument);
}

TEST(SubspaceModel, VectorSizeMismatchThrows) {
    const matrix y = structured_data(50, 3, 9);
    const subspace_model model = subspace_model::fit(y);
    const vec bad(5, 1.0);
    EXPECT_THROW(model.residual(bad), std::invalid_argument);
    EXPECT_THROW(model.spe(bad), std::invalid_argument);
    EXPECT_THROW(model.project_direction_residual(bad), std::invalid_argument);
}

TEST(SubspaceModel, SeparationFindsLowDimensionalStructure) {
    // Data with 2 strong trends: the 3-sigma rule should assign only a few
    // leading axes to the normal subspace.
    const matrix y = structured_data(1008, 10, 10);
    const subspace_model model = subspace_model::fit(y);
    EXPECT_GE(model.normal_rank(), 1u);
    EXPECT_LE(model.normal_rank(), 5u);
}

TEST(SubspaceModel, FixedRankSeparationIsHonored) {
    const matrix y = structured_data(300, 6, 11);
    separation_config sep;
    sep.fixed_rank = 4;
    const subspace_model model = subspace_model::fit(y, sep);
    EXPECT_EQ(model.normal_rank(), 4u);
}

TEST(SeparationRule, SpikeInProjectionPushesAxisToAnomalous) {
    // Inject a one-bin spike so that some projection beyond the first has
    // a > 3 sigma deviation; the rule must cut the normal space there.
    matrix y = structured_data(500, 6, 12);
    for (std::size_t c = 0; c < 6; ++c) y(250, c) += (c % 2 == 0) ? 400.0 : -400.0;
    const pca_model pca = fit_pca(y);
    const separation_config sep;
    const std::size_t rank = separate_normal_rank(pca, sep);
    EXPECT_LT(rank, 6u);
}

TEST(SeparationRule, KSigmaValidation) {
    const matrix y = structured_data(100, 4, 13);
    const pca_model pca = fit_pca(y);
    for (const double k_sigma : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()}) {
        separation_config sep;
        sep.k_sigma = k_sigma;
        EXPECT_THROW(separate_normal_rank(pca, sep), std::invalid_argument) << k_sigma;
    }
}

// A served fit forms and projects axis i only when the 3-sigma walk
// reaches it; the offline fit forms and projects every axis first. Both
// run the one walk over the one u_i arithmetic on the same variances, so
// the rank, variances, means and count are bit-equal; the served model
// keeps the r + 1 axes the walk read, equal to the offline columns to
// rounding.
void expect_served_fit_matches_offline(const matrix& y, const separation_config& sep,
                                       std::size_t expected_rank) {
    const pca_model offline = fit_pca(y);
    const subspace_model served = subspace_model::fit(y, sep);
    const std::size_t m = y.cols();
    EXPECT_EQ(served.normal_rank(), separate_normal_rank(offline, sep));
    EXPECT_EQ(served.normal_rank(), expected_rank);
    EXPECT_EQ(served.pca().axis_variance, offline.axis_variance);
    EXPECT_EQ(served.pca().column_means, offline.column_means);
    EXPECT_EQ(served.pca().sample_count, offline.sample_count);
    EXPECT_TRUE(served.pca().projections.empty());

    const matrix& axes = served.pca().principal_axes;
    ASSERT_EQ(axes.rows(), m);
    ASSERT_EQ(axes.cols(), std::min(expected_rank + 1, m));
    for (std::size_t k = 0; k < axes.cols(); ++k) {
        for (std::size_t i = 0; i < m; ++i) {
            EXPECT_NEAR(axes(i, k), offline.principal_axes(i, k), 1e-12)
                << "axis " << k << " link " << i;
        }
    }
}

TEST(SeparationRule, ServedFitMatchesOfflineFit) {
    // One spike dominating the variance puts the excursion on axis 0.
    matrix spiked = structured_data(200, 6, 21);
    for (std::size_t c = 0; c < 6; ++c) spiked(90, c) += 5000.0;
    {
        SCOPED_TRACE("excursion on axis 0");
        separation_config from_zero;
        from_zero.min_normal_axes = 0;
        expect_served_fit_matches_offline(spiked, from_zero, 0);
    }
    {
        // Eight rows cannot hold a 3-sigma deviation (|z| <= 7/sqrt(8) <
        // 2.5), so the walk visits every axis and keeps them all.
        SCOPED_TRACE("no excursion");
        expect_served_fit_matches_offline(structured_data(8, 5, 22), {}, 5);
    }
    {
        SCOPED_TRACE("fixed rank");
        separation_config fixed;
        fixed.fixed_rank = 3;
        expect_served_fit_matches_offline(spiked, fixed, 3);
    }
    {
        SCOPED_TRACE("min_normal_axes clamp");
        separation_config clamped;
        clamped.min_normal_axes = 2;
        expect_served_fit_matches_offline(spiked, clamped, 2);
    }
}

TEST(SeparationRule, OfflineWalkNeedsProjections) {
    const subspace_model served = subspace_model::fit(structured_data(100, 4, 24));
    EXPECT_THROW(separate_normal_rank(served.pca()), std::invalid_argument);
    separation_config fixed;
    fixed.fixed_rank = 2;
    EXPECT_EQ(separate_normal_rank(served.pca(), fixed), 2u);
}

TEST(SubspaceModel, ConstructorRejectsShapesThatDisagreeWithTheAxes) {
    const pca_model base = fit_pca(structured_data(60, 4, 25));
    pca_model narrow = base;
    narrow.principal_axes = matrix(4, 1, 0.5);
    EXPECT_THROW(subspace_model(narrow, 2), std::invalid_argument);
    EXPECT_NO_THROW(subspace_model(narrow, 1));
    pca_model short_variances = base;
    short_variances.axis_variance.pop_back();
    EXPECT_THROW(subspace_model(short_variances, 2), std::invalid_argument);
    pca_model short_means = base;
    short_means.column_means.pop_back();
    EXPECT_THROW(subspace_model(short_means, 2), std::invalid_argument);
}

TEST(SpeDetector, ThresholdComesFromQStatistic) {
    const matrix y = structured_data(600, 8, 14);
    const subspace_model model = subspace_model::fit(y);
    const spe_detector det(model, 0.999);
    EXPECT_DOUBLE_EQ(det.threshold(), model.q_threshold(0.999));
    EXPECT_DOUBLE_EQ(det.confidence(), 0.999);
}

TEST(SpeDetector, CleanTrafficMostlyPasses) {
    const matrix y = structured_data(600, 8, 15);
    const subspace_model model = subspace_model::fit(y);
    const spe_detector det(model, 0.995);
    const auto results = det.test_all(y);
    std::size_t alarms = 0;
    for (const auto& r : results) {
        if (r.anomalous) ++alarms;
    }
    EXPECT_LT(alarms, 20u);  // ~0.5% expected on 600 bins
}

TEST(SpeDetector, LargeResidualSpikeIsFlagged) {
    const matrix y = structured_data(600, 8, 16);
    const subspace_model model = subspace_model::fit(y);
    const spe_detector det(model, 0.999);

    vec measurement(y.row(100).begin(), y.row(100).end());
    // Push the measurement along the least-variance principal axis: it is
    // almost surely in the anomalous subspace. A served model keeps only
    // the axes its walk read, so the axis comes from the offline fit.
    const vec worst_axis = fit_pca(y).principal_axes.column(7);
    axpy(50.0, worst_axis, measurement);
    EXPECT_TRUE(det.test(measurement).anomalous);
}

TEST(SpeDetector, FullRankModelNeverAlarms) {
    // With normal_rank == m there is no residual subspace: the Q-statistic
    // threshold is +infinity and round-off-level SPE (> 0) must not flag
    // every timestep anomalous.
    const matrix y = structured_data(200, 6, 18);
    const subspace_model model(fit_pca(y), 6);
    EXPECT_TRUE(std::isinf(model.q_threshold(0.999)));
    const spe_detector det(model, 0.999);
    for (std::size_t r = 0; r < y.rows(); r += 11) {
        EXPECT_FALSE(det.test(y.row(r)).anomalous) << "row " << r;
    }
    // Even a wild measurement has nowhere anomalous to project to.
    vec wild(y.row(0).begin(), y.row(0).end());
    for (double& v : wild) v += 1e9;
    EXPECT_FALSE(det.test(wild).anomalous);
}

TEST(SpeDetector, InvalidConfidenceThrows) {
    const matrix y = structured_data(100, 4, 17);
    const subspace_model model = subspace_model::fit(y);
    EXPECT_THROW(spe_detector(model, 0.0), std::invalid_argument);
    EXPECT_THROW(spe_detector(model, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace netdiag
