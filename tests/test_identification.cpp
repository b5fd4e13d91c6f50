#include "subspace/identification.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

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
    EXPECT_EQ(terms->nonzeros(), 7u);

    // The runs and theta~ with the dense arithmetic spelled out: theta_i =
    // A_i * (1 / ||A_i||), ||theta~_i||^2 = ||theta_i||^2 - ||P^T theta_i||^2
    // (0 below 1e-9), theta~_i = C~ theta_i.
    const subspace_model& model = shared.model();
    for (std::size_t i = 0; i < a.cols(); ++i) {
        vec column = a.column(i);
        const double cn = norm(column);
        EXPECT_EQ(terms->column_norm(i), cn) << i;
        EXPECT_EQ(terms->column_sum(i), sum(column)) << i;
        std::vector<std::uint32_t> links;
        vec values;
        for (std::size_t l = 0; l < column.size(); ++l) {
            if (column[l] == 0.0) continue;
            links.push_back(static_cast<std::uint32_t>(l));
            values.push_back(column[l]);
        }
        const auto run_links = terms->run_links(i);
        const auto run_values = terms->run_values(i);
        EXPECT_EQ(std::vector<std::uint32_t>(run_links.begin(), run_links.end()), links) << i;
        EXPECT_EQ(vec(run_values.begin(), run_values.end()), values) << i;

        vec expected_residual(4, 0.0);
        double expected_norm2 = 0.0;
        if (cn > 0.0) {
            scale(column, 1.0 / cn);
            EXPECT_EQ(terms->theta(i), column) << i;
            double norm2 = norm_squared(column);
            double normal2 = 0.0;
            for (std::size_t k = 0; k < model.normal_rank(); ++k) {
                const double c = dot(model.normal_axis(k), column);
                normal2 += c * c;
            }
            norm2 -= normal2;
            if (norm2 >= 1e-9) {
                expected_residual = model.project_direction_residual(column);
                expected_norm2 = norm2;
            }
        } else {
            EXPECT_EQ(terms->theta(i), vec(4, 0.0)) << i;
        }
        for (const volume_anomaly_diagnoser* d : {&shared, &from_a}) {
            EXPECT_EQ(d->identifier().residual_direction(i), expected_residual) << i;
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

// Runs as a record holds them build the same terms as the dense matrix,
// and the runs constructor refuses every malformed shape.
TEST(RoutingTerms, RunsBuildTheSameTermsAsTheDenseMatrix) {
    matrix a(5, 4, 0.0);
    a(0, 0) = a(3, 0) = 1.0;
    a(1, 2) = 0.25;
    a(2, 2) = 3.0;
    a(4, 2) = -2.0;
    a(4, 3) = 1.0;
    const routing_terms dense(a);
    const std::vector<std::uint64_t> lengths{2, 0, 3, 1};
    const std::vector<std::uint64_t> links{0, 3, 1, 2, 4, 4};
    const routing_terms runs(5, lengths, links, {1.0, 1.0, 0.25, 3.0, -2.0, 1.0});
    ASSERT_EQ(runs.flows(), dense.flows());
    ASSERT_EQ(runs.links(), dense.links());
    const vec y{1.5, -2.0, 0.75, 4.0, 3.25};
    for (std::size_t i = 0; i < dense.flows(); ++i) {
        EXPECT_EQ(runs.column_norm(i), dense.column_norm(i)) << i;
        EXPECT_EQ(runs.column_sum(i), dense.column_sum(i)) << i;
        EXPECT_EQ(runs.theta(i), dense.theta(i)) << i;
        EXPECT_EQ(runs.theta_dot(i, y), dot(dense.theta(i), y)) << i;
    }

    const auto refuses = [](std::size_t links, std::vector<std::uint64_t> run_lengths,
                            std::vector<std::uint64_t> run_links, vec values) {
        EXPECT_THROW(routing_terms(links, run_lengths, run_links, std::move(values)),
                     std::invalid_argument);
    };
    refuses(0, {1}, {0}, {1.0});                  // no links
    refuses(3, {}, {}, {});                       // no flows
    refuses(std::size_t{1} << 32, {1}, {0}, {1.0});  // links past 32 bits
    refuses(3, {1}, {3}, {1.0});                  // link index past m
    refuses(3, {1}, {std::uint64_t{1} << 32}, {1.0});  // one that narrows to link 0
    refuses(3, {2}, {1, 1}, {1.0, 1.0});          // repeated link
    refuses(3, {2}, {2, 1}, {1.0, 1.0});          // decreasing links
    refuses(3, {1}, {0}, {0.0});                  // zero value
    refuses(3, {1}, {0}, {std::nan("")});         // NaN value
    refuses(3, {1}, {0}, {-HUGE_VAL});            // infinite value
    refuses(3, {1, 2}, {0, 1}, {1.0, 1.0});       // lengths past the runs
    refuses(3, {1}, {0, 1}, {1.0, 1.0});          // lengths short of the runs
    refuses(3, {2}, {0, 1}, {1.0});               // links and values disagree
}

// The sparse identity against theta~ formed densely, the way
// identification worked before it went sparse: for every link count and
// normal rank, the undetectable flows and the chosen flow are the same and
// the magnitudes agree to rounding. The routing holds a flow that crosses
// no link, two flows on one path and (for rank >= 1) a flow along a
// normal axis.
TEST(SparseIdentification, MatchesADenseResidualDirectionReference) {
    for (const std::size_t m : {std::size_t{4}, std::size_t{41}, std::size_t{156}}) {
        std::mt19937_64 rng(17 + m);
        std::normal_distribution<double> gauss(0.0, 1.0);
        std::uniform_int_distribution<std::size_t> pick_link(0, m - 1);
        const std::size_t t = 3 * m + 16;
        // Three strong shared patterns plus link noise.
        matrix y(t, m, 0.0);
        matrix loadings(3, m, 0.0);
        for (double& v : std::span<double>(loadings.data(), loadings.size())) v = gauss(rng);
        for (std::size_t r = 0; r < t; ++r) {
            const double f[3] = {8.0 * gauss(rng), 4.0 * gauss(rng), 2.0 * gauss(rng)};
            for (std::size_t c = 0; c < m; ++c) {
                y(r, c) = 100.0 + f[0] * loadings(0, c) + f[1] * loadings(1, c) +
                          f[2] * loadings(2, c) + 0.3 * gauss(rng);
            }
        }

        for (std::size_t rank = 0; rank <= 3 && rank < m; ++rank) {
            separation_config sep;
            sep.fixed_rank = rank;
            sep.min_normal_axes = 0;
            const subspace_model model = subspace_model::fit(y, sep);
            ASSERT_EQ(model.normal_rank(), rank);

            const std::size_t n = 2 * m + 4;
            matrix a(m, n, 0.0);
            // Flow 0 crosses no link; flows 1 and 2 share one path.
            for (std::size_t i = 1; i < n; ++i) {
                const std::size_t hops = 1 + (i * 7) % std::min<std::size_t>(m, 5);
                for (std::size_t h = 0; h < hops; ++h) a(pick_link(rng), i) = 1.0;
            }
            for (std::size_t l = 0; l < m; ++l) a(l, 2) = a(l, 1);
            if (rank > 0) {  // the last flow lies along the first normal axis
                const auto axis = model.normal_axis(0);
                for (std::size_t l = 0; l < m; ++l) a(l, n - 1) = axis[l];
            }
            const flow_identifier identifier(model, a);

            // The dense reference: theta~_i = C~ theta_i, dropped below 1e-9.
            std::vector<vec> theta_res(n);
            vec ref_norm2(n, 0.0);
            for (std::size_t i = 0; i < n; ++i) {
                vec column = a.column(i);
                const double cn = norm(column);
                if (cn == 0.0) continue;
                scale(column, 1.0 / cn);
                const vec tr = model.project_direction_residual(column);
                if (norm_squared(tr) < 1e-9) continue;
                theta_res[i] = tr;
                ref_norm2[i] = norm_squared(tr);
            }
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(identifier.residual_direction_norm_squared(i) == 0.0,
                          ref_norm2[i] == 0.0)
                    << "m " << m << " rank " << rank << " flow " << i;
            }
            EXPECT_EQ(identifier.residual_direction_norm_squared(0), 0.0);
            if (rank > 0) {
                EXPECT_EQ(identifier.residual_direction_norm_squared(n - 1), 0.0);
            }

            std::size_t tied_trials = 0;
            for (std::size_t trial = 0; trial < 40; ++trial) {
                const std::size_t flow = 1 + (trial * 13) % (n - 1);
                vec spiked(y.row(trial % t).begin(), y.row(trial % t).end());
                axpy((trial % 2 == 0 ? 60.0 : -45.0), a.column(flow), spiked);
                const vec residual = model.residual(spiked);
                vec ref_score(n, -1.0);
                vec ref_magnitude(n, 0.0);
                std::size_t best_flow = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    if (ref_norm2[i] == 0.0) continue;
                    const double proj = dot(theta_res[i], residual);
                    ref_score[i] = proj * proj / ref_norm2[i];
                    ref_magnitude[i] = proj / ref_norm2[i];
                    if (ref_score[i] > ref_score[best_flow]) best_flow = i;
                }
                // Flows on other paths whose score ties the best to rounding:
                // with a one-dimensional residual space (m = 4, rank 3) every
                // detectable flow ties, and either form may pick any of them.
                const double tie_floor = ref_score[best_flow] * (1.0 - 1e-9);
                bool tied = false;
                for (std::size_t i = 0; i < n; ++i) {
                    tied = tied ||
                           (ref_score[i] >= tie_floor && a.column(i) != a.column(best_flow));
                }
                tied_trials += tied ? 1 : 0;
                const identification_result single = identifier.identify(spiked);
                const identification_result fast = identifier.identify_residual(residual);
                const identification_result top = identifier.identify_top_k(spiked, 3).front();
                if (!tied) {
                    ASSERT_EQ(single.flow, best_flow) << "m " << m << " rank " << rank;
                    ASSERT_EQ(fast.flow, best_flow) << "m " << m << " rank " << rank;
                    // Two flows on one path score bit-equal; top-k breaks
                    // the tie by index, as identify does.
                    ASSERT_EQ(top.flow, single.flow) << "m " << m << " rank " << rank;
                }
                for (const identification_result& got : {single, fast, top}) {
                    if (tied) {
                        ASSERT_GE(ref_score[got.flow], tie_floor) << "m " << m << " rank " << rank;
                    }
                    const double expected = ref_magnitude[got.flow];
                    EXPECT_NEAR(got.magnitude, expected, 1e-10 * std::abs(expected))
                        << "m " << m << " rank " << rank << " trial " << trial;
                }
            }
            if (m > 4) {
                EXPECT_EQ(tied_trials, 0u) << "m " << m << " rank " << rank;
            }
        }
    }
}

// The sparse dot reads the residual at every link index of a run, so a
// residual or measurement of the wrong length is refused up front.
TEST_F(IdentificationFixture, WrongLengthResidualOrMeasurementThrows) {
    const flow_identifier identifier(*model_, routing_.a);
    const std::size_t m = routing_.a.rows();
    for (const std::size_t len : {m - 1, m + 1, std::size_t{0}}) {
        const vec bad(len, 1.0);
        EXPECT_THROW((void)identifier.identify_residual(bad), std::invalid_argument) << len;
        EXPECT_THROW((void)identifier.identify(bad), std::invalid_argument) << len;
        EXPECT_THROW((void)identifier.identify_top_k(bad, 3), std::invalid_argument) << len;
    }
}

}  // namespace
}  // namespace netdiag
