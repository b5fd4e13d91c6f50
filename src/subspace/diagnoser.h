// The three-step diagnosis facade: detect -> identify -> quantify.
//
// This is the library's primary entry point, matching the paper's problem
// definition (Section 2.2): given a new whole-network link measurement,
// decide whether an anomaly is in progress, name the responsible OD flow,
// and estimate its size in bytes.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "subspace/detector.h"
#include "subspace/identification.h"
#include "subspace/model.h"
#include "subspace/quantification.h"

namespace netdiag {

class thread_pool;

struct diagnosis {
    bool anomalous = false;
    double spe = 0.0;
    double threshold = 0.0;
    // Populated only when anomalous.
    std::optional<std::size_t> flow;
    double magnitude = 0.0;        // f^ along theta_flow
    double estimated_bytes = 0.0;  // signed byte estimate
};

class volume_anomaly_diagnoser {
public:
    // Fits the subspace model to historical link measurements y (t x m)
    // and prepares identification/quantification from routing matrix a
    // (m x flows). confidence is the 1-alpha detection level (paper: 0.999).
    // A non-null pool shards the fit (bit-identical to the serial fit for
    // every pool size; see subspace_model::fit).
    volume_anomaly_diagnoser(const matrix& y, const matrix& a, double confidence = 0.999,
                             const separation_config& sep = {}, thread_pool* pool = nullptr);

    // Assembles from an existing model (ablations), building the routing
    // terms from a.
    volume_anomaly_diagnoser(subspace_model model, const matrix& a, double confidence);

    // Assembles from an existing model and routing terms shared with other
    // diagnosers of the same stream (streaming refits and restores). The
    // terms are read, never copied. Throws std::invalid_argument when terms
    // is null or does not match the model's dimension.
    volume_anomaly_diagnoser(subspace_model model, std::shared_ptr<const routing_terms> terms,
                             double confidence);

    // Movable but not copyable: detector_ and identifier_ point at the
    // heap-held model, so moves keep them valid (the streaming subsystem
    // builds diagnosers on worker threads and moves them into place at the
    // swap boundary) while a copy would alias the source's model.
    volume_anomaly_diagnoser(volume_anomaly_diagnoser&&) noexcept = default;
    volume_anomaly_diagnoser& operator=(volume_anomaly_diagnoser&&) noexcept = default;
    volume_anomaly_diagnoser(const volume_anomaly_diagnoser&) = delete;
    volume_anomaly_diagnoser& operator=(const volume_anomaly_diagnoser&) = delete;

    const subspace_model& model() const noexcept { return *model_; }
    const spe_detector& detector() const noexcept { return detector_; }
    const flow_identifier& identifier() const noexcept { return identifier_; }

    diagnosis diagnose(std::span<const double> y) const;

    // One diagnosis per row of y. A non-null pool shards the rows across
    // its workers; each row writes its own slot, so the results are
    // bit-identical for every pool size.
    std::vector<diagnosis> diagnose_all(const matrix& y, thread_pool* pool = nullptr) const;

    // Sweep-friendly variant taking a precomputed residual vector.
    diagnosis diagnose_residual(std::span<const double> residual) const;

private:
    std::unique_ptr<subspace_model> model_;  // heap-held: address-stable under move
    spe_detector detector_;
    flow_identifier identifier_;
    quantifier quantifier_;
};

}  // namespace netdiag
