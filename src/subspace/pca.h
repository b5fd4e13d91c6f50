// Principal Component Analysis of the link measurement matrix (Section 4.2).
//
// Rows of Y are whole-network snapshots (points in R^m). A fit has two
// halves:
//   - the axes half: center the columns, form the sample covariance and
//     eigendecompose it into principal axes v_i (columns of
//     `principal_axes`) and captured variances (`axis_variance`,
//     descending);
//   - the projection half (pca_axis_projection): the normalized
//     projection u_i = Yc v_i / ||Yc v_i|| of the centered data on one
//     axis, the common temporal pattern of Figure 4.
// fit_pca runs both halves over every axis (`projections`, t x m) for
// offline callers that read every u_i; its axes half, fit_pca_axes, forms
// all m axes with sym_eigen. Served fits (subspace_model::fit: streaming
// refits, the streaming bootstrap, tracking_detector's bootstrap) run
// fit_pca_spectrum instead: the same variances bit for bit, with axis i
// formed -- and projected -- only when the 3-sigma separation walk reaches
// it. Their models carry no projections and only the axes the walk read.
#pragma once

#include <cstddef>

#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "measurement/centering.h"

namespace netdiag {

class thread_pool;

struct pca_model {
    // m x k orthonormal columns, variance-ordered: all m axes from fit_pca
    // and fit_pca_axes, the leading min(r + 1, m) in a served model.
    matrix principal_axes;
    vec axis_variance;      // sample variance captured per axis (all m), descending
    matrix projections;     // t x m, unit-norm columns u_i (fit_pca only; else empty)
    vec column_means;       // per-link means removed before the analysis
    std::size_t sample_count = 0;

    std::size_t dimension() const noexcept { return principal_axes.rows(); }

    // Fraction of total variance captured by axis i (Figure 3's y axis).
    double variance_fraction(std::size_t i) const;
    vec variance_fractions() const;

    // Smallest r such that the first r axes capture at least `fraction` of
    // the total variance. fraction must lie in (0, 1].
    std::size_t rank_for_variance(double fraction) const;
};

// The axes half of a fit, plus the centered data the projection half reads.
struct pca_axes_fit {
    pca_model model;  // projections left empty
    matrix centered;  // t x m: y minus model.column_means
};

// Centers raw (uncentered) link measurements y (t x m, t >= 2) and
// eigendecomposes their covariance. A non-null pool shards the covariance
// accumulation over its fixed row blocks (engaged once t > 256); the
// eigensolve runs serially, and the result is bit-identical for every
// pool size. Throws std::invalid_argument on degenerate shapes.
pca_axes_fit fit_pca_axes(const matrix& y, thread_pool* pool = nullptr);

// The axes half of a served fit: the centering, covariance and variances
// of fit_pca_axes bit for bit, with the axes left in factored form.
// spectrum.eigenvectors(first, count) forms any of them, equal to
// fit_pca_axes's columns to rounding.
struct pca_spectrum_fit {
    pca_model model;        // principal_axes and projections left empty
    matrix centered;        // t x m: y minus model.column_means
    sym_spectrum spectrum;  // of the covariance; eigenvalues unclamped
};

// The served fit of measurements centered already (center_columns of a
// matrix or of window rows read in place): `centered` moves into the
// result, its means into the model. Same pool and errors as
// fit_pca_axes, for t >= 2 centered rows.
pca_spectrum_fit fit_pca_spectrum(centering_result centered, thread_pool* pool = nullptr);

// fit_pca_spectrum(center_columns(y), pool).
pca_spectrum_fit fit_pca_spectrum(const matrix& y, thread_pool* pool = nullptr);

// The projection half for one axis: u_i = Yc v_i / ||Yc v_i||, with v_i
// column i of `axes` (left unnormalized when Yc v_i is zero). Every fit
// computes u_i with exactly this arithmetic.
vec pca_axis_projection(const matrix& centered, const matrix& axes, std::size_t i);

// Both halves over all m axes. A non-null pool shards the covariance (see
// fit_pca_axes) and, once t * m reaches 2^18, the per-axis projections.
// Each axis writes its own column, so the result is bit-identical for
// every pool size, no pool included. Throws std::invalid_argument on
// degenerate shapes.
pca_model fit_pca(const matrix& y, thread_pool* pool = nullptr);

}  // namespace netdiag
