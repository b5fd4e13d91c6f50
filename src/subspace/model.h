// The fitted subspace model: normal subspace S, anomalous subspace S~, and
// the projections of Section 5.1.
//
// The residual projector C~ = I - P P^T is never materialized: with P the
// m x r matrix of normal axes, residual(x) = x - P (P^T x) costs O(m r)
// per projection instead of the O(m^2) dense multiply, and stores O(m r).
// The link dimension is processed in fixed 256-link blocks whose partial
// reductions are combined in block order, so the rounding pattern is a
// function of m only. One projection runs serially; spe_series can shard
// its rows over an engine thread_pool.
//
// A model from subspace_model::fit keeps every variance and the means, but
// only the axes its separation walk read -- the r normal axes and the one
// at which the walk stopped -- and none of the t x m temporal
// projections: the walk forms and projects axis i lazily, and nothing
// after the fit reads the rest.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "measurement/centering.h"
#include "subspace/pca.h"
#include "subspace/separation.h"

namespace netdiag {

class thread_pool;

class subspace_model {
public:
    // Fits PCA to raw link measurements y (t x m) and separates the
    // subspaces with the given rule, forming and projecting axis i only
    // when the 3-sigma walk reaches it (fit_pca_spectrum +
    // pca_axis_projection). The variances equal fit_pca(y)'s bit for bit,
    // and the rank equals separate_normal_rank(fit_pca(y), sep); the axes
    // equal fit_pca(y)'s to rounding, and pca().principal_axes holds only
    // the first min(rank + 1, m) of them, pca().projections none. A
    // non-null pool shards the covariance accumulation over its fixed row
    // blocks (bit-identical for every pool size).
    static subspace_model fit(const matrix& y, const separation_config& sep = {},
                              thread_pool* pool = nullptr);

    // The same fit from measurements centered already: fit(y, sep, pool)
    // is fit(center_columns(y), sep, pool). Every served fit goes through
    // here; a streaming refit passes its window rows centered in place.
    static subspace_model fit(centering_result centered, const separation_config& sep = {},
                              thread_pool* pool = nullptr);

    // Assembles a model from an existing PCA with an explicit normal rank
    // (used by ablations, checkpoint restore and the online tracker).
    // Throws std::invalid_argument when normal_rank exceeds the dimension
    // m (the axes' row count), when the axes have fewer than normal_rank
    // columns, or when the variances or means are not m long. The
    // projections are not read.
    subspace_model(pca_model pca, std::size_t normal_rank);

    std::size_t dimension() const noexcept { return pca_.dimension(); }
    std::size_t normal_rank() const noexcept { return rank_; }
    const pca_model& pca() const noexcept { return pca_; }

    // Dense residual projector C~ = I - P P^T, materialized on demand.
    // O(m^2) storage and time: for tests and offline inspection only; the
    // hot paths below never build it.
    matrix dense_residual_projector() const;

    // y is a raw measurement vector (one row of Y, uncentered).
    // residual(y)  = C~ (y - mean)     -- the anomalous component y~
    // modeled(y)   = C  (y - mean)     -- the normal component y^ (centered)
    // spe(y)       = ||residual(y)||^2 -- the squared prediction error
    vec residual(std::span<const double> y) const;
    vec modeled(std::span<const double> y) const;
    double spe(std::span<const double> y) const;

    // C~ applied to a direction (no mean removal): used for anomaly
    // direction vectors theta_i, which are displacements, not measurements.
    vec project_direction_residual(std::span<const double> direction) const;

    // Normal axis v_k (k < normal_rank(), unchecked), m long and
    // contiguous: identification dots it with each flow's sparse theta_i.
    std::span<const double> normal_axis(std::size_t k) const noexcept {
        return normal_axes_t_.row(k);
    }

    // SPE for every row of a measurement matrix. A non-null pool shards
    // the rows once rows * m * rank reaches 2^15 (one result slot per row,
    // bit-identical to serial).
    vec spe_series(const matrix& y, thread_pool* pool = nullptr) const;

    // Jackson-Mudholkar threshold delta^2_alpha at the given confidence.
    double q_threshold(double confidence) const;

private:
    pca_model pca_;
    std::size_t rank_ = 0;
    matrix normal_axes_t_;  // rank x m, row k = principal axis v_k (contiguous)
};

}  // namespace netdiag
