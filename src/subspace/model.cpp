#include "subspace/model.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "subspace/qstat.h"

namespace netdiag {

namespace {

// Links per block of the two-stage residual projection (numerical
// contract: the per-block partial coefficients are reduced in block order,
// so changing the width moves results within rounding).
constexpr std::size_t k_link_block = 256;

// Minimum rows * m * rank before spe_series shards its rows over a pool
// (scheduling only: each row writes its own slot).
constexpr std::size_t k_spe_series_min_work = std::size_t{1} << 15;

// Axes a served fit forms per replay of the QL rotations: a walk that
// stops by axis 3 (normal rank <= 3, the common case) costs one replay.
constexpr std::size_t k_axis_block = 4;

// A served fit's 3-sigma walk over its spectrum, forming axis i only
// when the walk reaches it.
subspace_model walk_spectrum(pca_spectrum_fit fit, const separation_config& sep) {
    const std::size_t m = fit.spectrum.dimension();
    // Block b holds axes [b * k_axis_block, ...), formed when first read.
    std::vector<matrix> blocks;
    const auto block_of = [&](std::size_t axis) -> const matrix& {
        while (blocks.size() * k_axis_block <= axis) {
            const std::size_t first = blocks.size() * k_axis_block;
            blocks.push_back(fit.spectrum.eigenvectors(first, std::min(k_axis_block, m - first)));
        }
        return blocks[axis / k_axis_block];
    };
    const std::size_t rank = separate_normal_rank(m, sep, [&](std::size_t i) {
        return pca_axis_projection(fit.centered, block_of(i), i % k_axis_block);
    });

    // Keep the normal axes and the one the walk stopped at.
    const std::size_t keep = std::min(rank + 1, m);
    matrix& axes = fit.model.principal_axes;
    axes.assign(m, keep, 0.0);
    for (std::size_t k = 0; k < keep; ++k) {
        const matrix& block = block_of(k);
        for (std::size_t r = 0; r < m; ++r) axes(r, k) = block(r, k % k_axis_block);
    }
    return {std::move(fit.model), rank};
}

}  // namespace

subspace_model::subspace_model(pca_model pca, std::size_t normal_rank)
    : pca_(std::move(pca)), rank_(normal_rank) {
    const std::size_t m = pca_.dimension();
    if (rank_ > m) throw std::invalid_argument("subspace_model: normal rank exceeds dimension");
    if (pca_.principal_axes.cols() < rank_) {
        throw std::invalid_argument("subspace_model: fewer principal axes than the normal rank");
    }
    if (pca_.axis_variance.size() != m || pca_.column_means.size() != m) {
        throw std::invalid_argument("subspace_model: variances or means do not match dimension");
    }

    // Store P^T (rank x m) so every projection reads contiguous rows.
    // rank 0 leaves it the empty 0x0 matrix (C~ = I, residual == input).
    if (rank_ > 0 && m > 0) {
        normal_axes_t_.assign(rank_, m, 0.0);
        for (std::size_t k = 0; k < rank_; ++k) {
            for (std::size_t i = 0; i < m; ++i) normal_axes_t_(k, i) = pca_.principal_axes(i, k);
        }
    }
}

subspace_model subspace_model::fit(const matrix& y, const separation_config& sep,
                                   thread_pool* pool) {
    return fit(center_columns(y), sep, pool);
}

subspace_model subspace_model::fit(centering_result centered, const separation_config& sep,
                                   thread_pool* pool) {
    return walk_spectrum(fit_pca_spectrum(std::move(centered), pool), sep);
}

subspace_model subspace_model::fit(centering_result centered, const matrix& covariance,
                                   const separation_config& sep) {
    return walk_spectrum(fit_pca_spectrum(std::move(centered), covariance), sep);
}

matrix subspace_model::dense_residual_projector() const {
    const std::size_t m = dimension();
    matrix c_tilde = matrix::identity(m);
    for (std::size_t k = 0; k < rank_; ++k) {
        const auto v = normal_axes_t_.row(k);
        for (std::size_t i = 0; i < m; ++i) {
            const double vi = v[i];
            if (vi == 0.0) continue;
            for (std::size_t j = 0; j < m; ++j) c_tilde(i, j) -= vi * v[j];
        }
    }
    return c_tilde;
}

vec subspace_model::residual(std::span<const double> y) const {
    if (y.size() != dimension()) throw std::invalid_argument("subspace_model: vector size mismatch");
    const vec centered = subtract(y, pca_.column_means);
    return project_direction_residual(centered);
}

vec subspace_model::modeled(std::span<const double> y) const {
    if (y.size() != dimension()) throw std::invalid_argument("subspace_model: vector size mismatch");
    const vec centered = subtract(y, pca_.column_means);
    const vec resid = project_direction_residual(centered);
    return subtract(centered, resid);
}

double subspace_model::spe(std::span<const double> y) const {
    return norm_squared(residual(y));
}

vec subspace_model::project_direction_residual(std::span<const double> direction) const {
    const std::size_t m = dimension();
    if (direction.size() != m) {
        throw std::invalid_argument("subspace_model: direction size mismatch");
    }
    vec out(direction.begin(), direction.end());
    if (rank_ == 0 || m == 0) return out;

    const std::size_t blocks = (m + k_link_block - 1) / k_link_block;

    // Stage 1: coefficients c = P^T x, accumulated per link block.
    vec coeffs(rank_, 0.0);
    if (blocks == 1) {
        // Common case (m <= block width): plain dots, no partial buffer.
        for (std::size_t k = 0; k < rank_; ++k) {
            coeffs[k] = simd::dot(normal_axes_t_.row(k).data(), direction.data(), m);
        }
    } else {
        // Per-block partial dots, summed in block order.
        for (std::size_t b = 0; b < blocks; ++b) {
            const std::size_t begin = b * k_link_block;
            const std::size_t len = std::min(m, begin + k_link_block) - begin;
            for (std::size_t k = 0; k < rank_; ++k) {
                coeffs[k] += simd::dot(normal_axes_t_.row(k).data() + begin,
                                       direction.data() + begin, len);
            }
        }
    }

    // Stage 2: out = x - P c, element-wise over the same blocks (axpy with
    // -c_k performs the identical subtract per element).
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t begin = b * k_link_block;
        const std::size_t len = std::min(m, begin + k_link_block) - begin;
        for (std::size_t k = 0; k < rank_; ++k) {
            simd::axpy(-coeffs[k], normal_axes_t_.row(k).data() + begin, out.data() + begin,
                       len);
        }
    }
    return out;
}

vec subspace_model::spe_series(const matrix& y, thread_pool* pool) const {
    if (y.cols() != dimension()) throw std::invalid_argument("spe_series: column count mismatch");
    vec out(y.rows(), 0.0);
    const std::size_t work = y.rows() * dimension() * std::max<std::size_t>(rank_, 1);
    if (pool != nullptr && work >= k_spe_series_min_work) {
        parallel_for(*pool, 0, y.rows(), [&](std::size_t r) { out[r] = spe(y.row(r)); });
    } else {
        for (std::size_t r = 0; r < y.rows(); ++r) out[r] = spe(y.row(r));
    }
    return out;
}

double subspace_model::q_threshold(double confidence) const {
    return q_statistic_threshold(pca_.axis_variance, rank_, confidence);
}

}  // namespace netdiag
