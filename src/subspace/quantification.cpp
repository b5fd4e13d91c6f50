#include "subspace/quantification.h"

#include <stdexcept>
#include <utility>

namespace netdiag {

quantifier::quantifier(std::shared_ptr<const routing_terms> terms) : terms_(std::move(terms)) {
    if (!terms_) throw std::invalid_argument("quantifier: null routing terms");
}

quantifier::quantifier(const matrix& a) : quantifier(std::make_shared<const routing_terms>(a)) {}

double quantifier::estimate_bytes(std::size_t flow, double magnitude) const {
    if (flow >= terms_->flows()) throw std::out_of_range("quantifier: flow index out of range");
    const double column_norm = terms_->column_norm(flow);
    const double column_sum = terms_->column_sum(flow);
    if (column_sum == 0.0 || column_norm == 0.0) return 0.0;
    // A-bar_i^T (theta_i f) = f * ||A_i||^2 / (sum(A_i) * ||A_i||)
    //                      = f * ||A_i|| / sum(A_i).
    return magnitude * column_norm / column_sum;
}

double quantifier::estimate_bytes_from_link_traffic(std::size_t flow,
                                                    std::span<const double> y_prime) const {
    if (flow >= terms_->flows()) throw std::out_of_range("quantifier: flow index out of range");
    if (y_prime.size() != terms_->links()) {
        throw std::invalid_argument("quantifier: link traffic vector size mismatch");
    }
    const double column_norm = terms_->column_norm(flow);
    const double column_sum = terms_->column_sum(flow);
    if (column_sum == 0.0 || column_norm == 0.0) return 0.0;
    return terms_->theta_dot(flow, y_prime) * column_norm / column_sum;
}

}  // namespace netdiag
