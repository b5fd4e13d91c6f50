// Identification step (Section 5.2): which single OD flow best explains
// the residual traffic?
//
// For each candidate flow i the anomaly direction is theta_i = A_i/||A_i||
// (column i of the routing matrix, normalized). The best estimate of
// normal traffic under hypothesis F_i removes theta_i f from y (Equation
// (1)); the chosen flow minimizes the leftover residual norm. Expanding
// the algebra, minimizing ||C~ y*_i|| is equivalent to maximizing
//     <theta~_i, y~>^2 / ||theta~_i||^2,   theta~_i = C~ theta_i,
// which this class evaluates with precomputed theta~_i in O(m) per flow.
//
// theta_i, ||A_i|| and sum(A_i) depend on the routing matrix alone, so they
// live in routing_terms: a streaming_diagnoser builds them once per stream
// and every model epoch (live, pending, in-flight fit) shares them. Only
// theta~_i = C~ theta_i is rebuilt per model.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "subspace/model.h"

namespace netdiag {

// What identification and quantification read from a routing matrix A
// (links x flows), computed once:
//   theta(i)        theta_i = A_i / ||A_i||, a contiguous row (zero when
//                   A_i is zero)
//   column_norm(i)  ||A_i||
//   column_sum(i)   sum(A_i)
// Immutable after construction, so a pool worker's refit and the push
// thread read one instance concurrently through shared_ptr<const>.
// Accessors take flow < flows() unchecked.
class routing_terms {
public:
    // Throws std::invalid_argument on an empty routing matrix.
    explicit routing_terms(const matrix& a);

    std::size_t links() const noexcept { return theta_.cols(); }
    std::size_t flows() const noexcept { return theta_.rows(); }

    std::span<const double> theta(std::size_t flow) const noexcept { return theta_.row(flow); }
    double column_norm(std::size_t flow) const noexcept { return column_norm_[flow]; }
    double column_sum(std::size_t flow) const noexcept { return column_sum_[flow]; }

private:
    matrix theta_;                     // flows x links, row i = theta_i
    std::vector<double> column_norm_;  // ||A_i||
    std::vector<double> column_sum_;   // sum(A_i)
};

struct identification_result {
    std::size_t flow = 0;        // index of the chosen hypothesis F_i
    double magnitude = 0.0;      // f^_i, anomaly size along theta_i
    double residual_spe = 0.0;   // ||C~ y*_i||^2 after removing the anomaly
};

class flow_identifier {
public:
    // Prepares candidate directions theta~_i = C~ theta_i from shared
    // routing terms. Flows whose direction lies (numerically) inside the
    // normal subspace are undetectable (Section 5.4) and are never
    // selected. Throws std::invalid_argument when terms is null, its link
    // count differs from the model dimension, or no flow is identifiable.
    flow_identifier(const subspace_model& model, std::shared_ptr<const routing_terms> terms);

    // Same, building the routing terms from a (links x flows) on each
    // call: for offline callers that fit one model per matrix.
    flow_identifier(const subspace_model& model, const matrix& a);

    std::size_t candidate_count() const noexcept { return theta_residual_.rows(); }

    // Identifies the best single-flow hypothesis for raw measurement y.
    identification_result identify(std::span<const double> y) const;

    // Fast path taking the precomputed residual y~ = C~ (y - mean).
    identification_result identify_residual(std::span<const double> residual) const;

    // Ranked shortlist: the k hypotheses that explain the most residual
    // traffic, best first (an operator triage list). Returns fewer than k
    // entries when fewer flows are identifiable. Throws
    // std::invalid_argument for k == 0.
    std::vector<identification_result> identify_top_k(std::span<const double> y,
                                                      std::size_t k) const;

    // ||theta~_i||^2 for flow i (0 marks undetectable flows).
    double residual_direction_norm_squared(std::size_t flow) const;

    // theta~_i itself (for callers composing residual updates).
    std::span<const double> residual_direction(std::size_t flow) const;

    // ||A_i|| of the unnormalized routing column (sqrt of path length for
    // 0/1 routing), needed to convert between bytes and magnitudes.
    double routing_column_norm(std::size_t flow) const;

private:
    const subspace_model* model_;
    std::shared_ptr<const routing_terms> terms_;
    matrix theta_residual_;            // flows x m, row i = theta~_i
    std::vector<double> theta_norm2_;  // ||theta~_i||^2
};

}  // namespace netdiag
