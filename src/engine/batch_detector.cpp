#include "engine/batch_detector.h"

#include "engine/thread_pool.h"

namespace netdiag {

namespace {

// Rows a diagnose_all worker claims at a time (pure scheduling: the
// results are per-row, so the chunking never changes a bit).
constexpr std::size_t k_diagnose_grain = 16;

}  // namespace

batch_detector::batch_detector(std::size_t threads)
    : pool_(std::make_unique<thread_pool>(threads)) {}

batch_detector::~batch_detector() = default;

std::size_t batch_detector::threads() const noexcept { return pool_->size(); }

std::vector<detection_result> batch_detector::test_all(const spe_detector& detector,
                                                       const matrix& y) const {
    std::vector<detection_result> out(y.rows());
    parallel_for(*pool_, 0, y.rows(),
                 [&](std::size_t r) { out[r] = detector.test(y.row(r)); });
    return out;
}

std::vector<diagnosis> batch_detector::diagnose_all(const volume_anomaly_diagnoser& diagnoser,
                                                    const matrix& y) const {
    std::vector<diagnosis> out(y.rows());
    // Dynamic chunking: anomalous rows additionally pay for identification,
    // so threads claim fixed-size row chunks instead of one static span.
    parallel_for(*pool_, 0, y.rows(), k_diagnose_grain,
                 [&](std::size_t r) { out[r] = diagnoser.diagnose(y.row(r)); });
    return out;
}

vec batch_detector::spe_series(const subspace_model& model, const matrix& y) const {
    return model.spe_series(y, pool_.get());
}

std::vector<roc_point> batch_detector::compute_roc(const subspace_model& model, const matrix& y,
                                                   const std::vector<true_anomaly>& truths,
                                                   std::span<const double> confidences) const {
    return netdiag::compute_roc(model, y, truths, confidences, pool_.get());
}

injection_summary batch_detector::run_injection(const dataset& ds,
                                                const volume_anomaly_diagnoser& diagnoser,
                                                const injection_config& cfg) const {
    return run_injection_experiment(ds, diagnoser, cfg, pool_.get());
}

}  // namespace netdiag
