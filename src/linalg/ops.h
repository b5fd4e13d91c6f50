// BLAS-2/3 style dense kernels: products, transposes, Gram matrices.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace netdiag {

class thread_pool;

// C = A * B. Throws std::invalid_argument on inner-dimension mismatch.
matrix multiply(const matrix& a, const matrix& b);

// y = A * x. Throws std::invalid_argument on dimension mismatch.
vec multiply(const matrix& a, std::span<const double> x);

// y = A^T * x without materializing A^T.
vec multiply_transposed(const matrix& a, std::span<const double> x);

// A^T as a new matrix.
matrix transpose(const matrix& a);

// Gram matrix A^T * A (cols x cols), computed exploiting symmetry.
matrix gram(const matrix& a);

// Outer product a * b^T.
matrix outer(std::span<const double> a, std::span<const double> b);

// Sum of diagonal elements; requires a square matrix.
double trace(const matrix& a);

// Frobenius norm sqrt(sum a_ij^2).
double frobenius_norm(const matrix& a);

// Sample covariance of the columns of y: cov = Y_c^T Y_c / (rows - 1) where
// Y_c is y with column means removed. Requires at least two rows.
matrix column_covariance(const matrix& y);

// Covariance of rows that are already column-centered (center_columns
// output; fit_pca_axes feeds it), via blocked Gram accumulation: rows are
// split into blocks of at least k_covariance_min_block_rows (256) and at
// most k_covariance_max_blocks (64) blocks, each block accumulates a
// partial Gram matrix in register tiles (simd::gram_upper, adding the
// block's rows in order), and the partials are reduced in block order. The
// block layout is a function of the shape only -- never of the thread
// count -- so the result is bit-identical for any pool size, including
// pool == nullptr; a non-null pool accumulates the blocks in parallel.
// The blocked reduction reassociates the row sum relative to
// column_covariance, so the two agree only to rounding (~1e-15 relative;
// see test_engine.cpp). Requires at least two rows.
matrix parallel_centered_covariance(const matrix& centered, thread_pool* pool);

// Largest absolute off-diagonal element; requires a square matrix.
// Useful for verifying orthogonality (M^T M ~ I) in tests.
double max_off_diagonal(const matrix& a);

}  // namespace netdiag
