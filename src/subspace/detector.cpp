#include "subspace/detector.h"

#include <stdexcept>

#include "engine/thread_pool.h"

namespace netdiag {

spe_detector::spe_detector(const subspace_model& model, double confidence)
    : model_(&model), confidence_(confidence) {
    if (!(confidence > 0.0 && confidence < 1.0)) {
        throw std::invalid_argument("spe_detector: confidence outside (0, 1)");
    }
    threshold_ = model.q_threshold(confidence);
}

detection_result spe_detector::test(std::span<const double> y) const {
    const double spe = model_->spe(y);
    return {spe > threshold_, spe, threshold_};
}

std::vector<detection_result> spe_detector::test_all(const matrix& y, thread_pool* pool) const {
    std::vector<detection_result> out(y.rows());
    const auto test_row = [&](std::size_t r) { out[r] = test(y.row(r)); };
    if (pool != nullptr) {
        parallel_for(*pool, 0, y.rows(), test_row);
    } else {
        for (std::size_t r = 0; r < y.rows(); ++r) test_row(r);
    }
    return out;
}

detection_result spe_detector::test_residual(std::span<const double> residual) const {
    const double spe = norm_squared(residual);
    return {spe > threshold_, spe, threshold_};
}

}  // namespace netdiag
