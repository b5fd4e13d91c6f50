#include "subspace/identification.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "measurement/link_loads.h"
#include "subspace/diagnoser.h"
#include "subspace/quantification.h"
#include "topology/builders.h"
#include "topology/routing.h"

namespace netdiag {
namespace {

// Shared fixture: a small synthetic week on the Abilene topology with an
// already-fitted subspace model. Traffic is built directly (without the
// full generator) so the test controls every byte.
class IdentificationFixture : public ::testing::Test {
protected:
    void SetUp() override {
        topo_ = make_abilene();
        routing_ = build_routing(topo_);
        const std::size_t n = routing_.flow_count();
        const std::size_t t = 600;

        std::mt19937_64 rng(1234);
        std::normal_distribution<double> gauss(0.0, 1.0);
        matrix x(n, t, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            const double mean = 1e6 * (1.0 + static_cast<double>(j % 17));
            for (std::size_t ti = 0; ti < t; ++ti) {
                const double diurnal =
                    1.0 + 0.4 * std::sin(2.0 * 3.14159265 * static_cast<double>(ti) / 144.0);
                x(j, ti) = std::max(0.0, mean * diurnal + 0.03 * mean * gauss(rng));
            }
        }
        y_ = link_loads_from_flows(routing_.a, x);
        model_ = std::make_unique<subspace_model>(subspace_model::fit(y_));
    }

    // A baseline measurement with a spike of `bytes` injected into flow j.
    vec spiked_measurement(std::size_t t_idx, std::size_t flow, double bytes) const {
        vec y(y_.row(t_idx).begin(), y_.row(t_idx).end());
        const vec a_col = routing_.a.column(flow);
        axpy(bytes, a_col, y);
        return y;
    }

    topology topo_{"unset"};
    routing_result routing_;
    matrix y_;
    std::unique_ptr<subspace_model> model_;
};

TEST_F(IdentificationFixture, RecoversInjectedFlow) {
    const flow_identifier identifier(*model_, routing_.a);
    const std::size_t flow = routing_.flow_index(0, 7);
    const double bytes = 5e7;
    const vec y = spiked_measurement(300, flow, bytes);
    const identification_result id = identifier.identify(y);
    EXPECT_EQ(id.flow, flow);
}

TEST_F(IdentificationFixture, MagnitudeTracksInjectedBytes) {
    const flow_identifier identifier(*model_, routing_.a);
    const std::size_t flow = routing_.flow_index(2, 9);
    const double bytes = 8e7;
    const vec y = spiked_measurement(200, flow, bytes);
    const identification_result id = identifier.identify(y);
    ASSERT_EQ(id.flow, flow);
    // f^ estimates bytes * ||A_flow|| up to the background residual.
    const double expected = bytes * identifier.routing_column_norm(flow);
    EXPECT_NEAR(id.magnitude, expected, 0.2 * expected);
}

TEST_F(IdentificationFixture, ResidualSpeDropsAfterRemoval) {
    const flow_identifier identifier(*model_, routing_.a);
    const std::size_t flow = routing_.flow_index(4, 1);
    const vec y = spiked_measurement(100, flow, 6e7);
    const double spe_before = model_->spe(y);
    const identification_result id = identifier.identify(y);
    EXPECT_LT(id.residual_spe, 0.1 * spe_before);
}

TEST_F(IdentificationFixture, IdentifyResidualMatchesIdentify) {
    const flow_identifier identifier(*model_, routing_.a);
    const std::size_t flow = routing_.flow_index(5, 10);
    const vec y = spiked_measurement(50, flow, 7e7);
    const identification_result a = identifier.identify(y);
    const identification_result b = identifier.identify_residual(model_->residual(y));
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_NEAR(a.magnitude, b.magnitude, 1e-9 * std::abs(a.magnitude));
}

TEST_F(IdentificationFixture, NegativeAnomalyGetsNegativeMagnitude) {
    const flow_identifier identifier(*model_, routing_.a);
    const std::size_t flow = routing_.flow_index(3, 8);
    const vec y = spiked_measurement(250, flow, -5e7);
    const identification_result id = identifier.identify(y);
    EXPECT_EQ(id.flow, flow);
    EXPECT_LT(id.magnitude, 0.0);
}

class IdentificationFlows : public IdentificationFixture,
                            public ::testing::WithParamInterface<int> {};

TEST_P(IdentificationFlows, SweepAcrossFlows) {
    // Parameterized sweep over a spread of OD pairs: identification should
    // name the injected flow for all of them at this spike size.
    const flow_identifier identifier(*model_, routing_.a);
    const auto flow = static_cast<std::size_t>(GetParam());
    const vec y = spiked_measurement(400, flow, 1.2e8);
    EXPECT_EQ(identifier.identify(y).flow, flow);
}

INSTANTIATE_TEST_SUITE_P(FlowSweep, IdentificationFlows,
                         ::testing::Values(0, 5, 12, 23, 37, 48, 60, 77, 93, 104, 115, 120));

TEST_F(IdentificationFixture, TopKRanksInjectedFlowFirst) {
    const flow_identifier identifier(*model_, routing_.a);
    const std::size_t flow = routing_.flow_index(6, 2);
    const vec y = spiked_measurement(150, flow, 9e7);
    const auto ranked = identifier.identify_top_k(y, 5);
    ASSERT_EQ(ranked.size(), 5u);
    EXPECT_EQ(ranked[0].flow, flow);
    // Residual SPE after removal must be non-decreasing down the list.
    for (std::size_t i = 1; i < ranked.size(); ++i) {
        EXPECT_GE(ranked[i].residual_spe, ranked[i - 1].residual_spe - 1e-6);
    }
}

TEST_F(IdentificationFixture, TopKFirstEntryMatchesIdentify) {
    const flow_identifier identifier(*model_, routing_.a);
    const std::size_t flow = routing_.flow_index(9, 4);
    const vec y = spiked_measurement(220, flow, 7e7);
    const identification_result single = identifier.identify(y);
    const auto ranked = identifier.identify_top_k(y, 3);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked[0].flow, single.flow);
    EXPECT_NEAR(ranked[0].magnitude, single.magnitude, 1e-9 * std::abs(single.magnitude));
    EXPECT_NEAR(ranked[0].residual_spe, single.residual_spe,
                1e-6 * std::max(1.0, single.residual_spe));
}

TEST_F(IdentificationFixture, ResidualSpeNeverNegative) {
    // Regression: when the chosen direction explains (numerically) the
    // whole residual, ||residual||^2 - score cancels to a tiny negative;
    // both identify paths must clamp it at 0.
    const flow_identifier identifier(*model_, routing_.a);
    for (std::size_t flow = 0; flow < routing_.flow_count(); flow += 7) {
        if (identifier.residual_direction_norm_squared(flow) == 0.0) continue;
        // A residual exactly along theta~_flow: best_score == ||residual||^2
        // in exact arithmetic, so the subtraction is pure cancellation.
        const auto theta_res = identifier.residual_direction(flow);
        const vec residual = scaled(theta_res, 3.0e7 / std::max(1e-12, norm(theta_res)));
        const identification_result id = identifier.identify_residual(residual);
        ASSERT_GE(id.residual_spe, 0.0) << "flow " << flow;
    }
    // And down a full top-k list on a real spiked measurement.
    const vec y = spiked_measurement(320, routing_.flow_index(1, 4), 2e8);
    for (const identification_result& r : identifier.identify_top_k(y, 50)) {
        ASSERT_GE(r.residual_spe, 0.0) << "flow " << r.flow;
    }
}

TEST_F(IdentificationFixture, TopKClampsToCandidateCount) {
    const flow_identifier identifier(*model_, routing_.a);
    const vec y = spiked_measurement(100, routing_.flow_index(0, 1), 5e7);
    const auto ranked = identifier.identify_top_k(y, 100000);
    EXPECT_LE(ranked.size(), identifier.candidate_count());
    EXPECT_GT(ranked.size(), 100u);  // nearly every flow is identifiable here
}

TEST_F(IdentificationFixture, TopKZeroThrows) {
    const flow_identifier identifier(*model_, routing_.a);
    const vec y = spiked_measurement(100, 0, 5e7);
    EXPECT_THROW(identifier.identify_top_k(y, 0), std::invalid_argument);
}

TEST_F(IdentificationFixture, RoutingMatrixRowMismatchThrows) {
    const matrix bad_a(7, 3, 1.0);
    EXPECT_THROW(flow_identifier(*model_, bad_a), std::invalid_argument);
}

TEST_F(IdentificationFixture, AccessorsValidateIndices) {
    const flow_identifier identifier(*model_, routing_.a);
    EXPECT_THROW(identifier.residual_direction_norm_squared(9999), std::out_of_range);
    EXPECT_THROW(identifier.routing_column_norm(9999), std::out_of_range);
    EXPECT_THROW(identifier.residual_direction(9999), std::out_of_range);
}

TEST_F(IdentificationFixture, RoutingColumnNormIsSqrtPathLength) {
    const flow_identifier identifier(*model_, routing_.a);
    for (std::size_t j = 0; j < routing_.flow_count(); j += 11) {
        double links = 0.0;
        for (std::size_t i = 0; i < routing_.a.rows(); ++i) links += routing_.a(i, j);
        EXPECT_NEAR(identifier.routing_column_norm(j), std::sqrt(links), 1e-12);
    }
}

TEST_F(IdentificationFixture, QuantifierRecoversInjectedBytes) {
    const flow_identifier identifier(*model_, routing_.a);
    const quantifier quant(routing_.a);
    const std::size_t flow = routing_.flow_index(1, 6);
    const double bytes = 9e7;
    const vec y = spiked_measurement(350, flow, bytes);
    const identification_result id = identifier.identify(y);
    ASSERT_EQ(id.flow, flow);
    const double estimate = quant.estimate_bytes(id.flow, id.magnitude);
    EXPECT_NEAR(estimate, bytes, 0.25 * bytes);
}

TEST_F(IdentificationFixture, QuantifierLinkTrafficFormMatchesClosedForm) {
    const quantifier quant(routing_.a);
    const std::size_t flow = routing_.flow_index(2, 3);
    vec theta = routing_.a.column(flow);
    const double nrm = norm(theta);
    scale(theta, 1.0 / nrm);
    const double magnitude = 1e6;
    const vec y_prime = scaled(theta, magnitude);
    EXPECT_NEAR(quant.estimate_bytes(flow, magnitude),
                quant.estimate_bytes_from_link_traffic(flow, y_prime), 1e-6);
}

TEST_F(IdentificationFixture, QuantifierValidation) {
    const quantifier quant(routing_.a);
    EXPECT_THROW(quant.estimate_bytes(9999, 1.0), std::out_of_range);
    const vec bad(3, 0.0);
    EXPECT_THROW(quant.estimate_bytes_from_link_traffic(0, bad), std::invalid_argument);
    EXPECT_THROW(quantifier(matrix{}), std::invalid_argument);
}

// Four links whose only correlated variation runs along (1, 1, 0, 0).
// Walsh-pattern rows make every sample mean and cross-covariance exact, so
// the first principal axis is theta_0 of a flow over links 0 and 1.
matrix walsh_links() {
    matrix y(8, 4, 0.0);
    for (std::size_t r = 0; r < y.rows(); ++r) {
        const double w1 = (r & 1u) != 0 ? -1.0 : 1.0;
        const double w2 = (r & 2u) != 0 ? -1.0 : 1.0;
        const double w3 = (r & 4u) != 0 ? -1.0 : 1.0;
        y(r, 0) = 100.0 + 10.0 * w1;
        y(r, 1) = 100.0 + 10.0 * w1;
        y(r, 2) = 50.0 + 2.0 * w2;
        y(r, 3) = 80.0 + w3;
    }
    return y;
}

// Routing terms shared across a stream's diagnosers must build the same
// diagnoser, bit for bit, as the routing matrix they were computed from --
// including a flow that crosses no link and a flow the normal subspace
// swallows.
TEST(RoutingTerms, SharedTermsBuildTheSameDiagnoserAsTheRoutingMatrix) {
    const matrix y = walsh_links();
    matrix a(4, 5, 0.0);
    a(0, 0) = a(1, 0) = 1.0;  // along the normal axis: undetectable
    // flow 1 crosses no link
    a(2, 2) = 1.0;
    a(2, 3) = a(3, 3) = 1.0;
    a(0, 4) = a(3, 4) = 0.5;
    separation_config sep;
    sep.fixed_rank = 1;

    const auto terms = std::make_shared<const routing_terms>(a);
    const volume_anomaly_diagnoser shared(subspace_model::fit(y, sep), terms, 0.999);
    const volume_anomaly_diagnoser from_a(subspace_model::fit(y, sep), a, 0.999);
    ASSERT_EQ(terms->links(), 4u);
    ASSERT_EQ(terms->flows(), 5u);

    // The terms and theta~ with the arithmetic spelled out: theta_i =
    // A_i * (1 / ||A_i||), theta~_i = C~ theta_i, dropped below 1e-9.
    for (std::size_t i = 0; i < a.cols(); ++i) {
        vec column = a.column(i);
        const double cn = norm(column);
        EXPECT_EQ(terms->column_norm(i), cn) << i;
        EXPECT_EQ(terms->column_sum(i), sum(column)) << i;
        vec expected_residual(4, 0.0);
        double expected_norm2 = 0.0;
        if (cn > 0.0) {
            scale(column, 1.0 / cn);
            EXPECT_EQ(vec(terms->theta(i).begin(), terms->theta(i).end()), column) << i;
            const vec residual = shared.model().project_direction_residual(column);
            if (norm_squared(residual) >= 1e-9) {
                expected_residual = residual;
                expected_norm2 = norm_squared(residual);
            }
        }
        for (const volume_anomaly_diagnoser* d : {&shared, &from_a}) {
            const auto got = d->identifier().residual_direction(i);
            EXPECT_EQ(vec(got.begin(), got.end()), expected_residual) << i;
            EXPECT_EQ(d->identifier().residual_direction_norm_squared(i), expected_norm2) << i;
            EXPECT_EQ(d->identifier().routing_column_norm(i), cn) << i;
        }
    }
    EXPECT_EQ(shared.identifier().residual_direction_norm_squared(0), 0.0);
    EXPECT_EQ(shared.identifier().residual_direction_norm_squared(1), 0.0);
    EXPECT_EQ(shared.detector().threshold(), from_a.detector().threshold());

    std::size_t alarms = 0;
    for (std::size_t flow = 0; flow < a.cols(); ++flow) {
        for (const double bytes : {40.0, -25.0}) {
            vec spiked(y.row(3).begin(), y.row(3).end());
            axpy(bytes, a.column(flow), spiked);
            const diagnosis d1 = shared.diagnose(spiked);
            const diagnosis d2 = from_a.diagnose(spiked);
            EXPECT_EQ(d1.anomalous, d2.anomalous) << flow;
            EXPECT_EQ(d1.spe, d2.spe) << flow;
            EXPECT_EQ(d1.threshold, d2.threshold) << flow;
            EXPECT_EQ(d1.flow.value_or(99), d2.flow.value_or(99)) << flow;
            EXPECT_EQ(d1.magnitude, d2.magnitude) << flow;
            EXPECT_EQ(d1.estimated_bytes, d2.estimated_bytes) << flow;
            alarms += d1.anomalous ? 1 : 0;
        }
    }
    EXPECT_GT(alarms, 0u);

    // A flow that crosses no link quantifies to zero bytes in both forms.
    const quantifier quant(terms);
    EXPECT_EQ(quant.estimate_bytes(1, 5.0), 0.0);
    EXPECT_EQ(quant.estimate_bytes_from_link_traffic(1, vec(4, 3.0)), 0.0);
    EXPECT_THROW(quantifier(std::shared_ptr<const routing_terms>{}), std::invalid_argument);
    EXPECT_THROW(routing_terms(matrix{}), std::invalid_argument);
}

}  // namespace
}  // namespace netdiag
