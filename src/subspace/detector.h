// SPE detection step (Section 5.1): flag a timestep as anomalous when the
// squared prediction error exceeds the Q-statistic threshold.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "subspace/model.h"

namespace netdiag {

class thread_pool;

struct detection_result {
    bool anomalous = false;
    double spe = 0.0;
    double threshold = 0.0;
};

class spe_detector {
public:
    // confidence is the 1-alpha level, e.g. 0.999 for the paper's 99.9%.
    // Throws std::invalid_argument for confidence outside (0, 1).
    spe_detector(const subspace_model& model, double confidence);

    double threshold() const noexcept { return threshold_; }
    double confidence() const noexcept { return confidence_; }

    detection_result test(std::span<const double> y) const;

    // One result per row of y. A non-null pool shards the rows across its
    // workers; each row writes its own slot, so the results are
    // bit-identical for every pool size.
    std::vector<detection_result> test_all(const matrix& y, thread_pool* pool = nullptr) const;

    // Fast path for sweep experiments: tests a precomputed residual vector
    // (as produced by subspace_model::residual plus any direction algebra).
    detection_result test_residual(std::span<const double> residual) const;

private:
    const subspace_model* model_;
    double confidence_;
    double threshold_;
};

}  // namespace netdiag
