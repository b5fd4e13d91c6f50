#include "scenarios/evaluate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/link_residual.h"
#include "eval/roc.h"
#include "subspace/online.h"

namespace netdiag {

namespace {

detector_run run_subspace(const scenario_dataset& sd) {
    const volume_anomaly_diagnoser diagnoser(train_link_loads(sd), sd.data.routing.a, 0.999);
    const std::vector<diagnosis> per_bin = diagnoser.diagnose_all(eval_link_loads(sd));
    detector_run run;
    run.detector = "subspace";
    run.scores.reserve(per_bin.size());
    for (const diagnosis& d : per_bin) {
        run.scores.push_back(d.spe);
        run.alarms.push_back(d.anomalous);
        run.flows.push_back(d.flow);
        run.estimated_bytes.push_back(d.estimated_bytes);
    }
    return run;
}

detector_run run_streaming(const scenario_dataset& sd) {
    streaming_config cfg;
    cfg.window = sd.train_bins;
    cfg.refit_interval = std::max<std::size_t>(24, sd.eval_bins() / 4);
    streaming_diagnoser diagnoser(train_link_loads(sd), sd.data.routing.a, cfg);
    const matrix eval = eval_link_loads(sd);
    detector_run run;
    run.detector = "streaming";
    for (std::size_t r = 0; r < eval.rows(); ++r) {
        const diagnosis d = diagnoser.push(eval.row(r));
        run.scores.push_back(d.spe);
        run.alarms.push_back(d.anomalous);
        run.flows.push_back(d.flow);
        run.estimated_bytes.push_back(d.estimated_bytes);
    }
    return run;
}

detector_run run_tracking(const scenario_dataset& sd) {
    tracking_detector detector(train_link_loads(sd), 12, 0.999);
    const matrix eval = eval_link_loads(sd);
    detector_run run;
    run.detector = "tracking";
    for (std::size_t r = 0; r < eval.rows(); ++r) {
        const detection_result d = detector.push(eval.row(r));
        run.scores.push_back(d.spe);
        run.alarms.push_back(d.anomalous);
    }
    return run;
}

// Turns a full-span residual-norm series into a run: the evaluation slice
// becomes the scores, thresholded at mean + 3 sigma of the second half of
// the training region (the first half absorbs forecast warm-up).
detector_run run_from_norms(const std::string& name, const scenario_dataset& sd,
                            const vec& norms) {
    const std::size_t t = sd.train_bins;
    const std::size_t from = t / 2;
    double mean = 0.0;
    for (std::size_t k = from; k < t; ++k) mean += norms[k];
    mean /= static_cast<double>(t - from);
    double variance = 0.0;
    for (std::size_t k = from; k < t; ++k) {
        variance += (norms[k] - mean) * (norms[k] - mean);
    }
    variance /= static_cast<double>(t - from);
    const double threshold = mean + 3.0 * std::sqrt(variance);

    detector_run run;
    run.detector = name;
    for (std::size_t k = t; k < norms.size(); ++k) {
        run.scores.push_back(norms[k]);
        run.alarms.push_back(norms[k] > threshold);
    }
    return run;
}

}  // namespace

const std::vector<std::string>& scenario_detector_names() {
    static const std::vector<std::string> names{
        "subspace", "streaming", "tracking",     "ewma",
        "fourier",  "holt_winters", "wavelet",
    };
    return names;
}

detector_run run_scenario_detector(const std::string& detector, const scenario_dataset& sd) {
    if (detector == "subspace") return run_subspace(sd);
    if (detector == "streaming") return run_streaming(sd);
    if (detector == "tracking") return run_tracking(sd);

    const matrix& y = sd.data.link_loads;
    if (detector == "ewma") {
        return run_from_norms(detector, sd, residual_norm_series(ewma_link_residuals(y)));
    }
    if (detector == "fourier") {
        fourier_config cfg;
        cfg.bin_seconds = sd.data.bin_seconds;
        return run_from_norms(detector, sd, residual_norm_series(fourier_link_residuals(y, cfg)));
    }
    if (detector == "holt_winters") {
        holt_winters_config cfg;
        // Cap the season so the two-season forecast warm-up (zero
        // residuals) ends before the threshold window [train/2, train).
        cfg.season_length =
            std::min<std::size_t>(cfg.season_length, std::max<std::size_t>(1, sd.train_bins / 4));
        return run_from_norms(detector, sd,
                              residual_norm_series(holt_winters_link_residuals(y, cfg)));
    }
    if (detector == "wavelet") {
        return run_from_norms(detector, sd, residual_norm_series(wavelet_link_residuals(y, 5)));
    }
    throw std::invalid_argument("run_scenario_detector: unknown detector '" + detector + "'");
}

scenario_cell_score score_scenario_run(const scenario_dataset& sd, const detector_run& run) {
    const std::size_t n = sd.eval_bins();
    if (run.scores.size() != n || run.alarms.size() != n) {
        throw std::invalid_argument("score_scenario_run: run length mismatch");
    }
    if (!run.flows.empty() && run.flows.size() != n) {
        throw std::invalid_argument("score_scenario_run: flow series length mismatch");
    }
    if (!run.estimated_bytes.empty() && run.estimated_bytes.size() != n) {
        throw std::invalid_argument("score_scenario_run: estimate series length mismatch");
    }

    std::vector<diagnosis> per_bin(n);
    for (std::size_t k = 0; k < n; ++k) {
        per_bin[k].anomalous = run.alarms[k];
        per_bin[k].spe = run.scores[k];
        if (!run.flows.empty()) per_bin[k].flow = run.flows[k];
        if (!run.estimated_bytes.empty()) per_bin[k].estimated_bytes = run.estimated_bytes[k];
    }

    scenario_cell_score cell;
    cell.card = score_diagnoses(per_bin, eval_truths(sd));
    cell.auc = roc_auc(score_series_roc(run.scores, eval_truth_mask(sd)));
    const std::vector<delay_label> labels = eval_delay_labels(sd);
    cell.delay = score_detection_delay(run.alarms, labels);
    return cell;
}

}  // namespace netdiag
