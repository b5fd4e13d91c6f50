#include "subspace/diagnoser.h"

#include <utility>

#include "engine/thread_pool.h"

namespace netdiag {

namespace {

// Rows a diagnose_all worker claims at a time (pure scheduling: the
// results are per-row, so the chunking never changes a bit).
constexpr std::size_t k_diagnose_grain = 16;

}  // namespace

volume_anomaly_diagnoser::volume_anomaly_diagnoser(const matrix& y, const matrix& a,
                                                   double confidence,
                                                   const separation_config& sep,
                                                   thread_pool* pool)
    : volume_anomaly_diagnoser(subspace_model::fit(y, sep, pool), a, confidence) {}

volume_anomaly_diagnoser::volume_anomaly_diagnoser(subspace_model model, const matrix& a,
                                                   double confidence)
    : volume_anomaly_diagnoser(std::move(model), std::make_shared<const routing_terms>(a),
                               confidence) {}

volume_anomaly_diagnoser::volume_anomaly_diagnoser(subspace_model model,
                                                   std::shared_ptr<const routing_terms> terms,
                                                   double confidence)
    : model_(std::make_unique<subspace_model>(std::move(model))),
      detector_(*model_, confidence),
      identifier_(*model_, terms),
      quantifier_(std::move(terms)) {}

diagnosis volume_anomaly_diagnoser::diagnose(std::span<const double> y) const {
    return diagnose_residual(model_->residual(y));
}

diagnosis volume_anomaly_diagnoser::diagnose_residual(std::span<const double> residual) const {
    const detection_result det = detector_.test_residual(residual);
    diagnosis out;
    out.anomalous = det.anomalous;
    out.spe = det.spe;
    out.threshold = det.threshold;
    if (!det.anomalous) return out;

    const identification_result id = identifier_.identify_residual(residual);
    out.flow = id.flow;
    out.magnitude = id.magnitude;
    out.estimated_bytes = quantifier_.estimate_bytes(id.flow, id.magnitude);
    return out;
}

std::vector<diagnosis> volume_anomaly_diagnoser::diagnose_all(const matrix& y,
                                                               thread_pool* pool) const {
    std::vector<diagnosis> out(y.rows());
    const auto diagnose_row = [&](std::size_t r) { out[r] = diagnose(y.row(r)); };
    if (pool != nullptr) {
        // Dynamic chunking: anomalous rows additionally pay for
        // identification, so workers claim fixed-size row chunks instead
        // of one static span.
        parallel_for(*pool, 0, y.rows(), k_diagnose_grain, diagnose_row);
    } else {
        for (std::size_t r = 0; r < y.rows(); ++r) diagnose_row(r);
    }
    return out;
}

}  // namespace netdiag
