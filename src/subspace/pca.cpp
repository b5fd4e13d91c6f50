#include "subspace/pca.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "linalg/ops.h"
#include "measurement/centering.h"

namespace netdiag {

namespace {

// Minimum t * m before fit_pca shards its per-axis projections over a pool
// (scheduling only: each axis writes its own column).
constexpr std::size_t k_projection_min_work = std::size_t{1} << 18;

void check_fit_shape(const matrix& centered) {
    if (centered.rows() < 2) {
        throw std::invalid_argument("fit_pca: need at least two measurement rows");
    }
    if (centered.cols() == 0) throw std::invalid_argument("fit_pca: no measurement columns");
}

// Covariance eigenvalues are >= 0 in exact arithmetic; clamp round-off.
vec clamped_variances(vec eigenvalues) {
    for (double& v : eigenvalues) v = std::max(v, 0.0);
    return eigenvalues;
}

}  // namespace

double pca_model::variance_fraction(std::size_t i) const {
    if (i >= axis_variance.size()) {
        throw std::out_of_range("pca_model::variance_fraction: axis out of range");
    }
    double total = 0.0;
    for (double v : axis_variance) total += v;
    return total > 0.0 ? axis_variance[i] / total : 0.0;
}

vec pca_model::variance_fractions() const {
    vec out(axis_variance.size(), 0.0);
    double total = 0.0;
    for (double v : axis_variance) total += v;
    if (total <= 0.0) return out;
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = axis_variance[i] / total;
    return out;
}

std::size_t pca_model::rank_for_variance(double fraction) const {
    if (!(fraction > 0.0 && fraction <= 1.0)) {
        throw std::invalid_argument("rank_for_variance: fraction outside (0, 1]");
    }
    double total = 0.0;
    for (double v : axis_variance) total += v;
    if (total <= 0.0) return 0;
    double acc = 0.0;
    for (std::size_t i = 0; i < axis_variance.size(); ++i) {
        acc += axis_variance[i];
        if (acc >= fraction * total) return i + 1;
    }
    return axis_variance.size();
}

pca_axes_fit fit_pca_axes(const matrix& y, thread_pool* pool) {
    centering_result centered = center_columns(y);
    check_fit_shape(centered.centered);
    // center_columns already produced the centered rows (with the same
    // mean accumulation the covariance would redo), so the Gram runs
    // straight over them.
    sym_eigen_result eig = sym_eigen(parallel_centered_covariance(centered.centered, pool));
    pca_axes_fit out;
    out.model.principal_axes = std::move(eig.eigenvectors);
    out.model.axis_variance = clamped_variances(std::move(eig.eigenvalues));
    out.model.column_means = std::move(centered.column_means);
    out.model.sample_count = y.rows();
    out.centered = std::move(centered.centered);
    return out;
}

pca_spectrum_fit fit_pca_spectrum(centering_result centered, const matrix& cov) {
    check_fit_shape(centered.centered);
    const std::size_t m = centered.centered.cols();
    if (cov.rows() != m || cov.cols() != m) {
        throw std::invalid_argument("fit_pca_spectrum: covariance does not match the columns");
    }
    pca_spectrum_fit out{{}, std::move(centered.centered), sym_spectrum(cov)};
    out.model.axis_variance = clamped_variances(out.spectrum.eigenvalues());
    out.model.column_means = std::move(centered.column_means);
    out.model.sample_count = out.centered.rows();
    return out;
}

pca_spectrum_fit fit_pca_spectrum(centering_result centered, thread_pool* pool) {
    check_fit_shape(centered.centered);
    const matrix cov = parallel_centered_covariance(centered.centered, pool);
    return fit_pca_spectrum(std::move(centered), cov);
}

pca_spectrum_fit fit_pca_spectrum(const matrix& y, thread_pool* pool) {
    return fit_pca_spectrum(center_columns(y), pool);
}

vec pca_axis_projection(const matrix& centered, const matrix& axes, std::size_t i) {
    const std::size_t t = centered.rows();
    const std::size_t m = centered.cols();
    const vec axis = axes.column(i);
    vec u(t, 0.0);
    for (std::size_t r = 0; r < t; ++r) u[r] = simd::dot(centered.row(r).data(), axis.data(), m);
    const double n = norm(u);
    if (n > 0.0) {
        for (double& v : u) v /= n;
    }
    return u;
}

pca_model fit_pca(const matrix& y, thread_pool* pool) {
    pca_axes_fit fit = fit_pca_axes(y, pool);
    pca_model& model = fit.model;

    // Each axis writes its own column, so the axis loop shards with
    // identical arithmetic.
    const std::size_t t = y.rows();
    const std::size_t m = y.cols();
    model.projections.assign(t, m, 0.0);
    const auto project_axis = [&](std::size_t i) {
        model.projections.set_column(i, pca_axis_projection(fit.centered, model.principal_axes, i));
    };
    if (pool != nullptr && t * m >= k_projection_min_work) {
        parallel_for(*pool, 0, m, project_axis);
    } else {
        for (std::size_t i = 0; i < m; ++i) project_axis(i);
    }
    return std::move(model);
}

}  // namespace netdiag
