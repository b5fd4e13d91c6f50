#include "subspace/multiflow.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "linalg/error.h"
#include "linalg/qr.h"
#include "subspace/identification.h"

namespace netdiag {

namespace {

// Theta~ = C~ Theta with unit-normalized routing columns; m x k.
matrix residual_directions(const subspace_model& model, const matrix& a,
                           std::span<const std::size_t> flows) {
    const std::size_t m = model.dimension();
    matrix theta_res(m, flows.size(), 0.0);
    for (std::size_t c = 0; c < flows.size(); ++c) {
        if (flows[c] >= a.cols()) {
            throw std::invalid_argument("fit_multi_flow: flow index out of range");
        }
        vec column = a.column(flows[c]);
        const double n = norm(column);
        if (n == 0.0) throw std::invalid_argument("fit_multi_flow: flow crosses no links");
        scale(column, 1.0 / n);
        theta_res.set_column(c, model.project_direction_residual(column));
    }
    return theta_res;
}

}  // namespace

multi_flow_result fit_multi_flow(const subspace_model& model, const matrix& a,
                                 std::span<const std::size_t> flows,
                                 std::span<const double> y) {
    if (flows.empty()) throw std::invalid_argument("fit_multi_flow: empty flow set");
    {
        std::set<std::size_t> unique(flows.begin(), flows.end());
        if (unique.size() != flows.size()) {
            throw std::invalid_argument("fit_multi_flow: duplicate flow in hypothesis");
        }
    }

    const matrix theta_res = residual_directions(model, a, flows);
    const vec residual = model.residual(y);

    // min_f || y~ - Theta~ f ||  (least squares, Householder QR).
    vec intensities;
    try {
        intensities = least_squares(theta_res, residual);
    } catch (const numerical_error&) {
        throw std::invalid_argument(
            "fit_multi_flow: residual directions are linearly dependent; hypothesis not "
            "identifiable");
    }

    vec remaining = residual;
    for (std::size_t c = 0; c < flows.size(); ++c) {
        axpy(-intensities[c], theta_res.column(c), remaining);
    }

    multi_flow_result out;
    out.flows.assign(flows.begin(), flows.end());
    out.intensities = std::move(intensities);
    out.residual_spe = norm_squared(remaining);
    return out;
}

multi_flow_result identify_multi_flow_greedy(const subspace_model& model, const matrix& a,
                                             std::span<const double> y, double target_spe,
                                             std::size_t max_flows) {
    if (max_flows == 0) throw std::invalid_argument("identify_multi_flow_greedy: max_flows zero");

    const flow_identifier identifier(model, a);
    const routing_terms& routing = identifier.routing();
    std::vector<std::size_t> chosen;
    vec residual = model.residual(y);

    multi_flow_result best;
    best.residual_spe = norm_squared(residual);

    while (chosen.size() < max_flows && best.residual_spe > target_spe) {
        // Pick the single flow explaining the most of the current residual,
        // excluding those already chosen. The working residual stays inside
        // the residual subspace, so <theta~_i, r> = theta_i^T r: a sparse
        // dot over flow i's path.
        double best_score = -1.0;
        std::size_t best_flow = identifier.candidate_count();
        for (std::size_t i = 0; i < identifier.candidate_count(); ++i) {
            const double norm2 = identifier.residual_direction_norm_squared(i);
            if (norm2 == 0.0) continue;
            if (std::find(chosen.begin(), chosen.end(), i) != chosen.end()) continue;
            const double proj = routing.theta_dot(i, residual);
            const double score = proj * proj / norm2;
            if (score > best_score) {
                best_score = score;
                best_flow = i;
            }
        }
        if (best_flow == identifier.candidate_count()) break;  // nothing left to add

        chosen.push_back(best_flow);
        multi_flow_result fit = fit_multi_flow(model, a, chosen, y);
        if (fit.residual_spe >= best.residual_spe && !best.flows.empty()) {
            chosen.pop_back();  // no improvement: stop growing the hypothesis
            break;
        }
        best = std::move(fit);

        // Refresh the working residual to the unexplained part.
        residual = model.residual(y);
        const matrix theta_res = residual_directions(model, a, best.flows);
        for (std::size_t c = 0; c < best.flows.size(); ++c) {
            axpy(-best.intensities[c], theta_res.column(c), residual);
        }
    }
    return best;
}

}  // namespace netdiag
