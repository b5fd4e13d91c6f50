// The scenario x detector evaluation matrix.
//
// Every detector -- the batch subspace diagnoser, the three online
// detectors, and the four temporal link baselines -- is driven over a
// scenario the same way: fit/bootstrap on the clean training region, then
// produce one (score, alarm) pair per evaluation bin. Detectors that can
// name a flow and estimate its size also emit those; the scorer feeds
// everything through the unified eval-layer accounting (score_diagnoses,
// score_series_roc, score_detection_delay), so every cell of the matrix
// is scored with identical denominator semantics.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "eval/delay.h"
#include "eval/metrics.h"
#include "linalg/vector_ops.h"
#include "scenarios/scenario.h"

namespace netdiag {

// One detector's pass over a scenario's evaluation region.
struct detector_run {
    std::string detector;
    vec scores;          // anomaly score per evaluation bin (SPE or residual norm)
    std::vector<bool> alarms;
    // Per-bin flow identification; empty when the detector has no
    // identification step (link baselines, tracking detectors).
    std::vector<std::optional<std::size_t>> flows;
    // Per-bin signed byte estimates; empty when unavailable.
    vec estimated_bytes;
};

// One cell of the matrix: bin-level scorecard + ROC area + episode delay.
struct scenario_cell_score {
    diagnosis_scorecard card;
    double auc = 0.0;
    delay_summary delay;
};

// Canonical detector order (the bench matrix column order): subspace,
// streaming, tracking, ewma, fourier, holt_winters, wavelet.
const std::vector<std::string>& scenario_detector_names();

// Runs one detector over the scenario. Temporal baselines model each link
// series over the full span and threshold the residual norm at
// mean + 3 sigma of the training region's second half (skipping forecast
// warm-up). Throws std::invalid_argument for an unknown detector name.
detector_run run_scenario_detector(const std::string& detector, const scenario_dataset& sd);

// Scores a run against the scenario's ground truth. Throws
// std::invalid_argument when the run's series lengths do not match the
// scenario's evaluation region.
scenario_cell_score score_scenario_run(const scenario_dataset& sd, const detector_run& run);

}  // namespace netdiag
