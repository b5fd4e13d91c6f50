// Identification step (Section 5.2): which single OD flow best explains
// the residual traffic?
//
// For each candidate flow i the anomaly direction is theta_i = A_i/||A_i||
// (column i of the routing matrix, normalized). The best estimate of
// normal traffic under hypothesis F_i removes theta_i f from y (Equation
// (1)); the chosen flow minimizes the leftover residual norm. Expanding
// the algebra, minimizing ||C~ y*_i|| is equivalent to maximizing
//     <theta~_i, y~>^2 / ||theta~_i||^2,   theta~_i = C~ theta_i.
// C~ = I - P P^T is symmetric and idempotent and y~ = C~ (y - mean), so
//     <theta~_i, y~> = theta_i^T y~,
//     ||theta~_i||^2 = ||theta_i||^2 - ||P^T theta_i||^2,
// and theta~_i is never formed: a score is a sparse dot over flow i's
// path, and a model keeps one scalar per flow.
//
// theta_i, ||A_i|| and sum(A_i) depend on the routing matrix alone, so they
// live in routing_terms: a streaming_diagnoser builds them once per stream
// and every model epoch (live, pending, in-flight fit) shares them. Only
// ||theta~_i||^2 is computed per model: r sparse dots per flow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "subspace/model.h"

namespace netdiag {

// The routing matrix A (links x flows) as per-flow runs of its nonzeros,
// plus what identification and quantification read from it:
//   run_links(i)    the links flow i crosses, ascending
//   run_values(i)   A's nonzero entries on them
//   column_norm(i)  ||A_i||
//   column_sum(i)   sum(A_i)
//   theta_dot(i, y) theta_i^T y, theta_i = A_i * (1 / ||A_i||) (zero when
//                   A_i is zero), each entry formed where it is read
// The norms, sums and dots add over the nonzeros in link order, so they
// equal the dense sums over A_i's column bit for bit: adding an exact
// zero never changes a finite sum.
// Immutable after construction, so a pool worker's refit and the push
// thread read one instance concurrently through shared_ptr<const>.
// Accessors take flow < flows() unchecked.
class routing_terms {
public:
    // Reads a row by row (two passes). Throws std::invalid_argument on an
    // empty routing matrix.
    explicit routing_terms(const matrix& a);

    // From runs as a record stores them: run_lengths[i] entries of
    // run_links / run_values per flow, flows in order. Throws
    // std::invalid_argument unless links and flows are positive, links
    // fits 32 bits, the lengths sum to the size of both arrays, every
    // run's links ascend strictly below `links`, and every value is
    // finite and nonzero.
    routing_terms(std::size_t links, std::span<const std::uint64_t> run_lengths,
                  std::span<const std::uint64_t> run_links, std::vector<double> run_values);

    std::size_t links() const noexcept { return links_; }
    std::size_t flows() const noexcept { return column_norm_.size(); }
    std::size_t nonzeros() const noexcept { return run_links_.size(); }

    std::span<const std::uint32_t> run_links(std::size_t flow) const noexcept {
        return {run_links_.data() + run_begin_[flow], run_begin_[flow + 1] - run_begin_[flow]};
    }
    std::span<const double> run_values(std::size_t flow) const noexcept {
        return {run_values_.data() + run_begin_[flow], run_begin_[flow + 1] - run_begin_[flow]};
    }
    double column_norm(std::size_t flow) const noexcept { return column_norm_[flow]; }
    double column_sum(std::size_t flow) const noexcept { return column_sum_[flow]; }

    // theta_i^T y over flow i's run. y must hold links() entries
    // (unchecked).
    double theta_dot(std::size_t flow, std::span<const double> y) const noexcept;

    // theta_i as a dense links()-long vector (zero off the path).
    vec theta(std::size_t flow) const;

private:
    void finish();  // fills column_norm_ and column_sum_ from the runs

    std::size_t links_ = 0;
    std::vector<std::size_t> run_begin_;  // flows + 1 offsets into the arrays below
    std::vector<std::uint32_t> run_links_;
    std::vector<double> run_values_;      // A's entries
    std::vector<double> column_norm_;     // ||A_i||
    std::vector<double> column_sum_;      // sum(A_i)
};

struct identification_result {
    std::size_t flow = 0;        // index of the chosen hypothesis F_i
    double magnitude = 0.0;      // f^_i, anomaly size along theta_i
    double residual_spe = 0.0;   // ||C~ y*_i||^2 after removing the anomaly
};

class flow_identifier {
public:
    // Prepares ||theta~_i||^2 = ||theta_i||^2 - ||P^T theta_i||^2 for every
    // flow from shared routing terms. Flows whose direction lies
    // (numerically) inside the normal subspace are undetectable (Section
    // 5.4) and are never selected. Throws std::invalid_argument when terms
    // is null, its link count differs from the model dimension, or no flow
    // is identifiable.
    flow_identifier(const subspace_model& model, std::shared_ptr<const routing_terms> terms);

    // Same, building the routing terms from a (links x flows) on each
    // call: for offline callers that fit one model per matrix.
    flow_identifier(const subspace_model& model, const matrix& a);

    std::size_t candidate_count() const noexcept { return theta_norm2_.size(); }
    const routing_terms& routing() const noexcept { return *terms_; }

    // Identifies the best single-flow hypothesis for raw measurement y.
    // Throws std::invalid_argument when y's length is not the model's
    // dimension.
    identification_result identify(std::span<const double> y) const;

    // Fast path taking the precomputed residual y~ = C~ (y - mean).
    // Throws std::invalid_argument when its length is not the model's
    // dimension.
    identification_result identify_residual(std::span<const double> residual) const;

    // Ranked shortlist: the k hypotheses that explain the most residual
    // traffic, best first (an operator triage list); equal scores rank
    // the lower flow index first, so the first entry is identify()'s
    // flow. Returns fewer than k entries when fewer flows are
    // identifiable. Throws std::invalid_argument for k == 0 or a y of the
    // wrong length.
    std::vector<identification_result> identify_top_k(std::span<const double> y,
                                                      std::size_t k) const;

    // ||theta~_i||^2 for flow i (0 marks undetectable flows).
    double residual_direction_norm_squared(std::size_t flow) const;

    // theta~_i = C~ theta_i, formed on each call (zero for an
    // undetectable flow): for callers composing residual updates.
    vec residual_direction(std::size_t flow) const;

    // ||A_i|| of the unnormalized routing column (sqrt of path length for
    // 0/1 routing), needed to convert between bytes and magnitudes.
    double routing_column_norm(std::size_t flow) const;

private:
    const subspace_model* model_;
    std::shared_ptr<const routing_terms> terms_;
    std::vector<double> theta_norm2_;  // ||theta~_i||^2
};

}  // namespace netdiag
