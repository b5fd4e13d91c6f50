// Cross-dataset invariant sweep: the method-level guarantees that must
// hold on every preset dataset, parameterized over Sprint-1, Sprint-2 and
// Abilene (gtest TEST_P).
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "eval/ground_truth.h"
#include "linalg/ops.h"
#include "measurement/presets.h"
#include "subspace/detectability.h"
#include "subspace/diagnoser.h"

namespace netdiag {
namespace {

struct preset_case {
    const char* name;
    dataset (*make)();
    double cutoff_bytes;
};

// Print the preset by name: gtest's fallback dumps the raw bytes, which hold
// pointers and so would put load addresses into the listed test names.
void PrintTo(const preset_case& c, std::ostream* os) { *os << c.name; }

const preset_case k_cases[] = {
    {"Sprint1", &make_sprint1_dataset, 2e7},
    {"Sprint2", &make_sprint2_dataset, 2e7},
    {"Abilene", &make_abilene_dataset, 8e7},
};

// Datasets are expensive to generate; cache them per test process.
const dataset& cached_dataset(const preset_case& c) {
    static std::map<std::string, dataset> cache;
    auto it = cache.find(c.name);
    if (it == cache.end()) it = cache.emplace(c.name, c.make()).first;
    return it->second;
}

class DatasetSweep : public ::testing::TestWithParam<preset_case> {};

TEST_P(DatasetSweep, RoutingMatrixSuperpositionHolds) {
    const dataset& ds = cached_dataset(GetParam());
    // Spot-check y = Ax at several bins.
    for (std::size_t t = 0; t < ds.bin_count(); t += 211) {
        const vec x = ds.od_flows.column(t);
        const vec y = multiply(ds.routing.a, x);
        for (std::size_t i = 0; i < ds.link_count(); i += 7) {
            EXPECT_NEAR(ds.link_loads(t, i), y[i], 1e-6 * std::max(1.0, y[i]));
        }
    }
}

TEST_P(DatasetSweep, NormalSubspaceIsLowDimensional) {
    const dataset& ds = cached_dataset(GetParam());
    const subspace_model model = subspace_model::fit(ds.link_loads);
    EXPECT_GE(model.normal_rank(), 1u);
    EXPECT_LE(model.normal_rank(), 8u);
    double top5 = 0.0;
    for (std::size_t i = 0; i < 5; ++i) top5 += model.pca().variance_fraction(i);
    EXPECT_GT(top5, 0.9);
}

TEST_P(DatasetSweep, FalseAlarmRateNearNominal) {
    const dataset& ds = cached_dataset(GetParam());
    const volume_anomaly_diagnoser diag(ds.link_loads, ds.routing.a, 0.999);
    const auto diagnoses = diag.diagnose_all(ds.link_loads);
    std::map<std::size_t, bool> truth_bins;
    for (const anomaly_event& ev : ds.injected) truth_bins[ev.t] = true;
    std::size_t false_alarms = 0;
    std::size_t normal = 0;
    for (std::size_t t = 0; t < diagnoses.size(); ++t) {
        if (truth_bins.contains(t)) continue;
        ++normal;
        if (diagnoses[t].anomalous) ++false_alarms;
    }
    EXPECT_LT(static_cast<double>(false_alarms) / static_cast<double>(normal), 0.01);
}

TEST_P(DatasetSweep, MajorityOfCutoffAnomaliesDiagnosed) {
    const dataset& ds = cached_dataset(GetParam());
    const volume_anomaly_diagnoser diag(ds.link_loads, ds.routing.a, 0.999);
    std::size_t big = 0, detected = 0, identified = 0;
    for (const anomaly_event& ev : ds.injected) {
        if (std::abs(ev.amplitude_bytes) < GetParam().cutoff_bytes) continue;
        ++big;
        const diagnosis d = diag.diagnose(ds.link_loads.row(ev.t));
        if (!d.anomalous) continue;
        ++detected;
        if (d.flow && *d.flow == ev.flow) ++identified;
    }
    ASSERT_GT(big, 0u);
    EXPECT_GE(static_cast<double>(detected) / static_cast<double>(big), 0.6);
    EXPECT_EQ(identified, detected);  // every detection names the right flow
}

TEST_P(DatasetSweep, DetectabilityBoundsAreFiniteAndInRange) {
    // The sufficient condition of Section 5.4 is conservative (roughly a
    // factor 2-4 above the empirical detection boundary), but it must be
    // finite for every flow, and the best-observed flows must sit within
    // a small multiple of the dataset's anomaly cutoff -- otherwise the
    // Table 2 detections above would be impossible.
    const dataset& ds = cached_dataset(GetParam());
    const subspace_model model = subspace_model::fit(ds.link_loads);
    const auto thresholds = detectability_thresholds(model, ds.routing.a, 0.999);
    double best = thresholds.front().min_detectable_bytes;
    for (const auto& d : thresholds) {
        EXPECT_TRUE(std::isfinite(d.min_detectable_bytes)) << "flow " << d.flow;
        best = std::min(best, d.min_detectable_bytes);
    }
    EXPECT_LT(best, 5.0 * GetParam().cutoff_bytes);
}

TEST_P(DatasetSweep, GroundTruthExtractionFindsInjectedEvents) {
    const dataset& ds = cached_dataset(GetParam());
    ground_truth_config cfg;
    cfg.cutoff_bytes = GetParam().cutoff_bytes;
    cfg.bin_seconds = ds.bin_seconds;
    const ground_truth gt = extract_ground_truth(ds.od_flows, cfg);

    // Every injected above-cutoff event appears in the extracted set.
    std::size_t big = 0, found = 0;
    for (const anomaly_event& ev : ds.injected) {
        if (std::abs(ev.amplitude_bytes) < 1.2 * GetParam().cutoff_bytes) continue;
        ++big;
        for (const true_anomaly& a : gt.significant) {
            if (a.flow == ev.flow && a.t == ev.t) {
                ++found;
                break;
            }
        }
    }
    EXPECT_EQ(found, big);
}

INSTANTIATE_TEST_SUITE_P(Presets, DatasetSweep, ::testing::ValuesIn(k_cases),
                         [](const ::testing::TestParamInfo<preset_case>& info) {
                             return std::string(info.param.name);
                         });

}  // namespace
}  // namespace netdiag
