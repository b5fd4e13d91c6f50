#include "scenarios/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "scenarios/evaluate.h"
#include "scenarios/shapes.h"

namespace netdiag {
namespace {

scenario_config small_config() {
    scenario_config cfg;
    cfg.train_bins = 48;
    cfg.eval_bins = 48;
    return cfg;
}

TEST(ScenarioShapes, EnvelopesAreBoundedAndValidated) {
    const auto ramp = ramp_then_hold(10, 0.4);
    ASSERT_EQ(ramp.size(), 10u);
    EXPECT_DOUBLE_EQ(ramp.back(), 1.0);
    EXPECT_LT(ramp.front(), ramp.back());
    for (std::size_t k = 1; k < ramp.size(); ++k) EXPECT_GE(ramp[k], ramp[k - 1]);

    const auto pulses = pulse_train(12, 4, 2);
    double on = 0.0;
    for (double w : pulses) on += w;
    EXPECT_DOUBLE_EQ(on, 6.0);  // half of every period is on

    const auto flash = flash_crowd_shape(12, 3, 2.0);
    EXPECT_DOUBLE_EQ(flash[2], 1.0);
    EXPECT_LT(flash.back(), 0.1);  // heavy decay by the end

    EXPECT_THROW(constant_shape(0), std::invalid_argument);
    EXPECT_THROW(ramp_then_hold(5, 0.0), std::invalid_argument);
    EXPECT_THROW(pulse_train(5, 2, 3), std::invalid_argument);
    EXPECT_THROW(flash_crowd_shape(5, 0, 2.0), std::invalid_argument);
}

TEST(ScenarioBuilder, TruthCellsStayInsideLabeledWindows) {
    scenario_builder b("unit", small_config());
    const std::size_t flow = b.flows_by_mean()[0];
    b.add_episode("burst", flow, 50, constant_shape(6), 4.0e7);
    const scenario_dataset sd = b.finish();

    ASSERT_EQ(sd.labels.size(), 1u);
    ASSERT_EQ(sd.truth.size(), 6u);
    for (const true_anomaly& a : sd.truth) {
        EXPECT_EQ(a.flow, flow);
        EXPECT_GE(a.t, 50u);
        EXPECT_LT(a.t, 56u);
        EXPECT_NEAR(a.size_bytes, 4.0e7, 1e-3);
    }
}

TEST(ScenarioBuilder, LinkLoadsStayConsistentWithOdFlows) {
    scenario_builder b("unit", small_config());
    b.add_episode("burst", 3, 60, constant_shape(2), 3.0e7);
    const scenario_dataset sd = b.finish();

    // y = A x at an arbitrary perturbed bin (the paper's consistency
    // construction survives the injection).
    const std::size_t t = 60;
    const matrix& a = sd.data.routing.a;
    for (std::size_t link = 0; link < a.rows(); ++link) {
        double expected = 0.0;
        for (std::size_t f = 0; f < a.cols(); ++f) {
            expected += a(link, f) * sd.data.od_flows(f, t);
        }
        EXPECT_NEAR(sd.data.link_loads(t, link), expected, 1e-6 * std::max(1.0, expected));
    }
}

TEST(ScenarioBuilder, OverlappingEpisodesSumTheirDeltas) {
    scenario_builder b("unit", small_config());
    b.add_episode("a", 5, 50, constant_shape(4), 1.0e7);
    b.add_episode("b", 5, 52, constant_shape(4), 2.0e7);
    const scenario_dataset sd = b.finish();

    // Bins 50-55 are perturbed; one truth cell per bin even where the
    // episodes overlap, carrying the summed delta.
    ASSERT_EQ(sd.truth.size(), 6u);
    std::set<std::size_t> bins;
    for (const true_anomaly& a : sd.truth) bins.insert(a.t);
    EXPECT_EQ(bins.size(), 6u);
    for (const true_anomaly& a : sd.truth) {
        const bool overlap = a.t >= 52 && a.t < 54;
        EXPECT_NEAR(a.size_bytes, overlap ? 3.0e7 : (a.t < 52 ? 1.0e7 : 2.0e7), 1e-3);
    }
}

TEST(ScenarioBuilder, ZeroMagnitudeLabelsProduceNoTruthOrDelayLabels) {
    scenario_builder b("unit", small_config());
    b.add_episode("ghost", 2, 60, constant_shape(5), 0.0);
    const scenario_dataset sd = b.finish();

    ASSERT_EQ(sd.labels.size(), 1u);
    EXPECT_TRUE(sd.truth.empty());
    EXPECT_TRUE(eval_delay_labels(sd).empty());
    const auto mask = eval_truth_mask(sd);
    EXPECT_EQ(std::count(mask.begin(), mask.end(), true), 0);
}

TEST(ScenarioBuilder, DelayLabelsClipAtTheEvaluationBoundary) {
    scenario_builder b("unit", small_config());
    // Onset exactly at the train/eval edge.
    b.add_episode("edge", 0, 48, constant_shape(4), 1.0e7);
    // Straddles the boundary: onset inside training, tail in evaluation.
    b.add_episode("straddle", 1, 44, constant_shape(10), 1.0e7);
    // Entirely inside the training region: not a delay opportunity.
    b.add_episode("early", 2, 10, constant_shape(5), 1.0e7);
    const scenario_dataset sd = b.finish();

    const auto labels = eval_delay_labels(sd);
    ASSERT_EQ(labels.size(), 2u);
    EXPECT_EQ(labels[0].onset, 0u);
    EXPECT_EQ(labels[0].duration, 4u);
    EXPECT_EQ(labels[1].onset, 0u);  // clipped to the first evaluation bin
    EXPECT_EQ(labels[1].duration, 6u);

    // eval_truths drops the training-region cells but keeps the tail.
    for (const true_anomaly& a : eval_truths(sd)) EXPECT_LT(a.t, sd.eval_bins());
}

TEST(ScenarioBuilder, TrafficDropsClampAtZeroAndRecordAppliedDelta) {
    scenario_builder b("unit", small_config());
    // A shift larger than any flow carries cannot go below zero bytes.
    b.shift_traffic("reroute", 0, 1, 50, 3, 1.0);
    const scenario_dataset sd = b.finish();

    double drained = 0.0;
    double gained = 0.0;
    for (const true_anomaly& a : sd.truth) {
        if (a.flow == 0) drained += a.size_bytes;
        if (a.flow == 1) gained += a.size_bytes;
        EXPECT_TRUE(std::isfinite(a.size_bytes));
    }
    EXPECT_LT(drained, 0.0);
    EXPECT_GT(gained, 0.0);
    // The full fraction drains flow 0 completely; the applied delta
    // mirrors onto flow 1, so the two sides cancel.
    EXPECT_NEAR(drained + gained, 0.0, 1e-6);
    for (std::size_t t = 50; t < 53; ++t) EXPECT_DOUBLE_EQ(sd.data.od_flows(0, t), 0.0);
}

TEST(ScenarioBuilder, Validation) {
    scenario_config bad = small_config();
    bad.eval_bins = 4;
    EXPECT_THROW(scenario_builder("unit", bad), std::invalid_argument);

    scenario_builder b("unit", small_config());
    const auto shape = constant_shape(4);
    EXPECT_THROW(b.add_episode("x", 9999, 10, shape, 1.0), std::invalid_argument);
    EXPECT_THROW(b.add_episode("x", 0, 95, shape, 1.0), std::invalid_argument);
    EXPECT_THROW(b.shift_traffic("x", 0, 0, 10, 4, 0.5), std::invalid_argument);
    EXPECT_THROW(b.shift_traffic("x", 0, 1, 10, 4, 1.5), std::invalid_argument);
    b.finish();
    EXPECT_THROW(b.finish(), std::logic_error);
}

TEST(ScenarioCatalog, BuildsEveryScenarioWithEvalRegionTruth) {
    const scenario_config cfg = small_config();
    for (const std::string& name : scenario_names()) {
        const scenario_dataset sd = build_scenario(name, cfg);
        EXPECT_EQ(sd.name, name);
        EXPECT_EQ(sd.train_bins, cfg.train_bins);
        EXPECT_EQ(sd.eval_bins(), cfg.eval_bins);
        EXPECT_FALSE(sd.labels.empty()) << name;
        EXPECT_FALSE(sd.truth.empty()) << name;
        EXPECT_FALSE(eval_delay_labels(sd).empty()) << name;
        // Catalogue episodes live strictly in the evaluation region.
        for (const true_anomaly& a : sd.truth) EXPECT_GE(a.t, sd.train_bins) << name;
    }
    EXPECT_THROW(build_scenario("no_such_scenario", cfg), std::invalid_argument);
}

TEST(ScenarioCatalog, RerouteShiftCarriesBothSigns) {
    const scenario_dataset sd = build_scenario("reroute_shift", small_config());
    bool has_drop = false;
    bool has_surge = false;
    for (const true_anomaly& a : sd.truth) {
        has_drop = has_drop || a.size_bytes < 0.0;
        has_surge = has_surge || a.size_bytes > 0.0;
    }
    EXPECT_TRUE(has_drop);
    EXPECT_TRUE(has_surge);
}

TEST(ScenarioEvaluate, SubspaceDetectsTheDdosRamp) {
    const scenario_dataset sd = build_scenario("ddos_ramp", small_config());
    const detector_run run = run_scenario_detector("subspace", sd);
    ASSERT_EQ(run.scores.size(), sd.eval_bins());
    const scenario_cell_score cell = score_scenario_run(sd, run);
    EXPECT_GT(cell.card.detected_bin_count, 0u);
    EXPECT_GE(cell.auc, 0.0);
    EXPECT_LE(cell.auc, 1.0);
    EXPECT_EQ(cell.delay.labels_scored, 1u);
}

TEST(ScenarioEvaluate, ScorerValidatesRunLengths) {
    const scenario_dataset sd = build_scenario("ddos_ramp", small_config());
    detector_run run = run_scenario_detector("wavelet", sd);
    run.scores.pop_back();
    EXPECT_THROW(score_scenario_run(sd, run), std::invalid_argument);
    EXPECT_THROW(run_scenario_detector("no_such_detector", sd), std::invalid_argument);
}

}  // namespace
}  // namespace netdiag
