// Extension bench: the detection/false-alarm trade-off as the confidence
// level sweeps -- an ROC view of the Q-statistic threshold. The paper
// fixes 99.9% (Table 2) and shows 99.5% in Figure 5; this bench fills in
// the whole curve.
#include "bench_common.h"

#include <cmath>

#include "eval/roc.h"

int main() {
    using namespace netdiag;
    bench::print_header("Extension: ROC sweep of the Q-statistic confidence level",
                        "Interpolates the paper's 99.5%/99.9% operating points (Fig. 5, Table 2)");

    const dataset ds = make_sprint1_dataset();
    const subspace_model model = subspace_model::fit(ds.link_loads);
    const flow_identifier identifier(model, ds.routing.a);
    const quantifier quant(ds.routing.a);

    std::vector<true_anomaly> truths;
    for (const anomaly_event& ev : ds.injected) {
        if (std::abs(ev.amplitude_bytes) >= bench::cutoff_for(ds)) {
            truths.push_back({ev.flow, ev.t, ev.amplitude_bytes});
        }
    }

    text_table table({"Confidence", "delta^2", "Detection", "False alarms",
                      "False alarm rate"});
    for (double confidence : {0.90, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999}) {
        const volume_anomaly_diagnoser diagnoser(model, ds.routing.a, confidence);
        const auto diagnoses = diagnoser.diagnose_all(ds.link_loads, bench::pool());
        const diagnosis_scorecard card = score_diagnoses(diagnoses, truths);
        table.add_row({format_fixed(confidence * 100.0, 2) + "%",
                       format_scientific(diagnoser.detector().threshold(), 2),
                       format_ratio(card.detected_bin_count, card.truth_bin_count),
                       format_ratio(card.false_alarm_count, card.normal_bin_count),
                       format_percent(card.false_alarm_rate(), 2)});
    }
    std::printf("%s\n", table.str().c_str());

    const std::vector<double> sweep{0.5,  0.8,   0.9,   0.95,  0.99,
                                    0.995, 0.999, 0.9995, 0.9999};
    const auto curve = compute_roc(model, ds.link_loads, truths, sweep, bench::pool());
    std::printf("ROC AUC over the sweep: %.4f\n\n", roc_auc(curve));
    std::printf("Reading: detections saturate while false alarms keep falling as the\n"
                "confidence rises -- the anomalous and normal SPE populations are well\n"
                "separated (the paper's Figure 5 picture), so the exact confidence\n"
                "choice is uncritical across two orders of magnitude of alarm rate.\n");
    return 0;
}
