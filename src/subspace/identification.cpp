#include "subspace/identification.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace netdiag {

namespace {

constexpr double k_undetectable_tol = 1e-9;

}  // namespace

routing_terms::routing_terms(const matrix& a) {
    if (a.empty()) throw std::invalid_argument("routing_terms: empty routing matrix");
    theta_.assign(a.cols(), a.rows(), 0.0);
    column_norm_.assign(a.cols(), 0.0);
    column_sum_.assign(a.cols(), 0.0);
    for (std::size_t i = 0; i < a.cols(); ++i) {
        vec column = a.column(i);
        const double cn = norm(column);
        column_norm_[i] = cn;
        column_sum_[i] = sum(column);
        if (cn == 0.0) continue;  // flow crosses no links: theta_i stays zero
        scale(column, 1.0 / cn);
        theta_.set_row(i, column);
    }
}

flow_identifier::flow_identifier(const subspace_model& model, const matrix& a)
    : flow_identifier(model, std::make_shared<const routing_terms>(a)) {}

flow_identifier::flow_identifier(const subspace_model& model,
                                 std::shared_ptr<const routing_terms> terms)
    : model_(&model), terms_(std::move(terms)) {
    if (!terms_) throw std::invalid_argument("flow_identifier: null routing terms");
    const std::size_t m = model.dimension();
    if (terms_->links() != m) {
        throw std::invalid_argument("flow_identifier: routing matrix row count mismatch");
    }
    const std::size_t n = terms_->flows();
    theta_residual_.assign(n, m, 0.0);
    theta_norm2_.assign(n, 0.0);

    bool any_identifiable = false;
    for (std::size_t i = 0; i < n; ++i) {
        if (terms_->column_norm(i) == 0.0) continue;  // never identifiable
        const vec theta_res = model.project_direction_residual(terms_->theta(i));
        const double n2 = norm_squared(theta_res);
        // Directions aligned with the normal subspace have C~ theta ~ 0 and
        // cannot be distinguished from normal variation (Section 5.4).
        if (n2 < k_undetectable_tol) continue;
        theta_residual_.set_row(i, theta_res);
        theta_norm2_[i] = n2;
        any_identifiable = true;
    }
    if (!any_identifiable) {
        throw std::invalid_argument("flow_identifier: no identifiable flow directions");
    }
}

identification_result flow_identifier::identify(std::span<const double> y) const {
    return identify_residual(model_->residual(y));
}

identification_result flow_identifier::identify_residual(std::span<const double> residual) const {
    const std::size_t n = theta_norm2_.size();
    double best_score = -1.0;
    std::size_t best_flow = 0;
    double best_projection = 0.0;

    for (std::size_t i = 0; i < n; ++i) {
        if (theta_norm2_[i] == 0.0) continue;
        const double proj = dot(theta_residual_.row(i), residual);
        const double score = proj * proj / theta_norm2_[i];
        if (score > best_score) {
            best_score = score;
            best_flow = i;
            best_projection = proj;
        }
    }

    identification_result out;
    out.flow = best_flow;
    out.magnitude = best_projection / theta_norm2_[best_flow];
    // ||residual||^2 - score cancels to a tiny negative when the chosen
    // direction explains (numerically) all of the residual; clamp at 0.
    out.residual_spe = std::max(0.0, norm_squared(residual) - best_score);
    return out;
}

std::vector<identification_result> flow_identifier::identify_top_k(std::span<const double> y,
                                                                   std::size_t k) const {
    if (k == 0) throw std::invalid_argument("identify_top_k: k must be positive");
    const vec residual = model_->residual(y);
    const double residual_spe = norm_squared(residual);

    struct scored_flow {
        double score;
        std::size_t flow;
        double projection;  // carried along so the O(m) dot runs once per flow
    };
    std::vector<scored_flow> scored;
    for (std::size_t i = 0; i < theta_norm2_.size(); ++i) {
        if (theta_norm2_[i] == 0.0) continue;
        const double proj = dot(theta_residual_.row(i), residual);
        scored.push_back({proj * proj / theta_norm2_[i], i, proj});
    }
    std::sort(scored.begin(), scored.end(),
              [](const scored_flow& a, const scored_flow& b) { return a.score > b.score; });
    if (scored.size() > k) scored.resize(k);

    std::vector<identification_result> out;
    out.reserve(scored.size());
    for (const scored_flow& s : scored) {
        out.push_back({s.flow, s.projection / theta_norm2_[s.flow],
                       std::max(0.0, residual_spe - s.score)});
    }
    return out;
}

double flow_identifier::residual_direction_norm_squared(std::size_t flow) const {
    if (flow >= theta_norm2_.size()) {
        throw std::out_of_range("flow_identifier: flow index out of range");
    }
    return theta_norm2_[flow];
}

std::span<const double> flow_identifier::residual_direction(std::size_t flow) const {
    if (flow >= theta_residual_.rows()) {
        throw std::out_of_range("flow_identifier: flow index out of range");
    }
    return theta_residual_.row(flow);
}

double flow_identifier::routing_column_norm(std::size_t flow) const {
    if (flow >= terms_->flows()) {
        throw std::out_of_range("flow_identifier: flow index out of range");
    }
    return terms_->column_norm(flow);
}

}  // namespace netdiag
