#include "subspace/identification.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace netdiag {

namespace {

constexpr double k_undetectable_tol = 1e-9;

}  // namespace

routing_terms::routing_terms(const matrix& a) : links_(a.rows()) {
    if (a.empty()) throw std::invalid_argument("routing_terms: empty routing matrix");
    if (a.rows() > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument("routing_terms: too many links");
    }
    // Two passes over A's rows: count each flow's nonzeros, then lay them
    // out as runs. Rows ascend, so every run's links do too.
    const std::size_t n = a.cols();
    run_begin_.assign(n + 1, 0);
    for (std::size_t l = 0; l < a.rows(); ++l) {
        const auto row = a.row(l);
        for (std::size_t i = 0; i < n; ++i) run_begin_[i + 1] += row[i] != 0.0 ? 1 : 0;
    }
    for (std::size_t i = 0; i < n; ++i) run_begin_[i + 1] += run_begin_[i];
    run_links_.resize(run_begin_[n]);
    run_values_.resize(run_begin_[n]);
    std::vector<std::size_t> next(run_begin_.begin(), run_begin_.end() - 1);
    for (std::size_t l = 0; l < a.rows(); ++l) {
        const auto row = a.row(l);
        for (std::size_t i = 0; i < n; ++i) {
            if (row[i] == 0.0) continue;
            run_links_[next[i]] = static_cast<std::uint32_t>(l);
            run_values_[next[i]] = row[i];
            ++next[i];
        }
    }
    finish();
}

routing_terms::routing_terms(std::size_t links, std::span<const std::uint64_t> run_lengths,
                             std::span<const std::uint64_t> run_links,
                             std::vector<double> run_values)
    : links_(links), run_values_(std::move(run_values)) {
    if (links == 0 || run_lengths.empty()) {
        throw std::invalid_argument("routing_terms: no links or no flows");
    }
    if (links > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument("routing_terms: too many links");
    }
    const std::size_t k = run_links.size();
    if (run_values_.size() != k) {
        throw std::invalid_argument("routing_terms: run links and values differ in count");
    }
    const std::size_t n = run_lengths.size();
    run_begin_.assign(n + 1, 0);
    run_links_.resize(k);
    for (std::size_t i = 0; i < n; ++i) {
        if (run_lengths[i] > k - run_begin_[i]) {
            throw std::invalid_argument("routing_terms: run lengths exceed the runs");
        }
        run_begin_[i + 1] = run_begin_[i] + run_lengths[i];
        for (std::size_t j = run_begin_[i]; j < run_begin_[i + 1]; ++j) {
            if (run_links[j] >= links) {
                throw std::invalid_argument("routing_terms: link index out of range");
            }
            if (j > run_begin_[i] && run_links[j] <= run_links[j - 1]) {
                throw std::invalid_argument("routing_terms: run links do not ascend");
            }
            if (run_values_[j] == 0.0 || !std::isfinite(run_values_[j])) {
                throw std::invalid_argument("routing_terms: zero or non-finite run value");
            }
            run_links_[j] = static_cast<std::uint32_t>(run_links[j]);
        }
    }
    if (run_begin_[n] != k) {
        throw std::invalid_argument("routing_terms: run lengths do not sum to the runs");
    }
    finish();
}

void routing_terms::finish() {
    const std::size_t n = run_begin_.size() - 1;
    column_norm_.assign(n, 0.0);
    column_sum_.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double squares = 0.0;
        double total = 0.0;
        for (std::size_t j = run_begin_[i]; j < run_begin_[i + 1]; ++j) {
            squares += run_values_[j] * run_values_[j];
            total += run_values_[j];
        }
        column_norm_[i] = std::sqrt(squares);
        column_sum_[i] = total;
    }
}

// theta_i's entries are run_values_[j] * (1 / ||A_i||), formed where they
// are read; a flow whose norm is zero (no links, or squares that
// underflow) has theta_i = 0.
double routing_terms::theta_dot(std::size_t flow, std::span<const double> y) const noexcept {
    if (column_norm_[flow] == 0.0) return 0.0;
    const double inv = 1.0 / column_norm_[flow];
    double acc = 0.0;
    for (std::size_t j = run_begin_[flow]; j < run_begin_[flow + 1]; ++j) {
        acc += run_values_[j] * inv * y[run_links_[j]];
    }
    return acc;
}

vec routing_terms::theta(std::size_t flow) const {
    vec out(links_, 0.0);
    if (column_norm_[flow] == 0.0) return out;
    const double inv = 1.0 / column_norm_[flow];
    for (std::size_t j = run_begin_[flow]; j < run_begin_[flow + 1]; ++j) {
        out[run_links_[j]] = run_values_[j] * inv;
    }
    return out;
}

flow_identifier::flow_identifier(const subspace_model& model, const matrix& a)
    : flow_identifier(model, std::make_shared<const routing_terms>(a)) {}

flow_identifier::flow_identifier(const subspace_model& model,
                                 std::shared_ptr<const routing_terms> terms)
    : model_(&model), terms_(std::move(terms)) {
    if (!terms_) throw std::invalid_argument("flow_identifier: null routing terms");
    if (terms_->links() != model.dimension()) {
        throw std::invalid_argument("flow_identifier: routing matrix row count mismatch");
    }
    const std::size_t n = terms_->flows();
    theta_norm2_.assign(n, 0.0);

    bool any_identifiable = false;
    for (std::size_t i = 0; i < n; ++i) {
        if (terms_->column_norm(i) == 0.0) continue;  // never identifiable
        // ||C~ theta||^2 = ||theta||^2 - ||P^T theta||^2 for orthonormal P.
        const double inv = 1.0 / terms_->column_norm(i);
        double theta_norm2 = 0.0;
        for (const double v : terms_->run_values(i)) {
            const double t = v * inv;  // theta_i's entry
            theta_norm2 += t * t;
        }
        double normal_norm2 = 0.0;
        for (std::size_t k = 0; k < model.normal_rank(); ++k) {
            const double c = terms_->theta_dot(i, model.normal_axis(k));
            normal_norm2 += c * c;
        }
        const double n2 = theta_norm2 - normal_norm2;
        // Directions aligned with the normal subspace have C~ theta ~ 0 and
        // cannot be distinguished from normal variation (Section 5.4).
        if (n2 < k_undetectable_tol) continue;
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
    // theta_dot reads residual at every link index unchecked.
    if (residual.size() != terms_->links()) {
        throw std::invalid_argument("flow_identifier: residual size mismatch");
    }
    const std::size_t n = theta_norm2_.size();
    double best_score = -1.0;
    std::size_t best_flow = 0;
    double best_projection = 0.0;

    for (std::size_t i = 0; i < n; ++i) {
        if (theta_norm2_[i] == 0.0) continue;
        const double proj = terms_->theta_dot(i, residual);
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
        double projection;  // carried along so the dot runs once per flow
    };
    std::vector<scored_flow> scored;
    for (std::size_t i = 0; i < theta_norm2_.size(); ++i) {
        if (theta_norm2_[i] == 0.0) continue;
        const double proj = terms_->theta_dot(i, residual);
        scored.push_back({proj * proj / theta_norm2_[i], i, proj});
    }
    // Equal scores (two flows on one path) keep the lower index first, the
    // flow identify() picks.
    std::sort(scored.begin(), scored.end(), [](const scored_flow& a, const scored_flow& b) {
        return a.score > b.score || (a.score == b.score && a.flow < b.flow);
    });
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

vec flow_identifier::residual_direction(std::size_t flow) const {
    if (flow >= theta_norm2_.size()) {
        throw std::out_of_range("flow_identifier: flow index out of range");
    }
    if (theta_norm2_[flow] == 0.0) return vec(terms_->links(), 0.0);
    return model_->project_direction_residual(terms_->theta(flow));
}

double flow_identifier::routing_column_norm(std::size_t flow) const {
    if (flow >= terms_->flows()) {
        throw std::out_of_range("flow_identifier: flow index out of range");
    }
    return terms_->column_norm(flow);
}

}  // namespace netdiag
