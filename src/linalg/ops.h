// BLAS-2/3 style dense kernels: products, transposes, Gram matrices.
#pragma once

#include <algorithm>
#include <cstddef>
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

// The fixed row blocks of a centered covariance over t rows: at
// least k_covariance_min_block_rows (256) rows per block and at most
// k_covariance_max_blocks (64) blocks, each partial being m x m. The
// layout is a function of the row count only -- never of the thread
// count or of who computes a block -- and the partials reduce in block
// order, so it is part of the numerical contract: changing either bound
// moves fit results within rounding.
struct covariance_blocks {
    explicit covariance_blocks(std::size_t t);

    std::size_t rows = 0;        // t
    std::size_t block_rows = 0;  // rows per block; the last may hold fewer
    std::size_t count = 0;       // blocks

    std::size_t begin(std::size_t b) const noexcept { return b * block_rows; }
    std::size_t end(std::size_t b) const noexcept { return std::min(rows, begin(b) + block_rows); }
};

// Block b's partial Gram: adds the block's rows of `centered` (t x m,
// already column-centered), in order, into the upper triangle of
// `partial`, an m x m matrix the caller zeroed. The register tiles
// (simd::gram_upper) give every element the products a plain row loop
// adds, in its order; entries below the diagonal are scratch.
void accumulate_covariance_block(const matrix& centered, const covariance_blocks& blocks,
                                 std::size_t b, matrix& partial);

// The covariance from every block's partial: the upper triangles summed
// in block order into zeros, scaled by 1/(rows - 1) and mirrored.
matrix reduce_covariance_blocks(std::span<const matrix> partials,
                                const covariance_blocks& blocks);

// Covariance of rows that are already column-centered (center_columns
// output; fit_pca_axes feeds it): every block of covariance_blocks
// accumulated, then reduced. A non-null pool accumulates the blocks in
// parallel; the result is bit-identical for any pool size, including
// pool == nullptr. The blocked reduction reassociates the row sum
// relative to column_covariance, so the two agree only to rounding
// (~1e-15 relative; see test_engine.cpp). Requires at least two rows.
matrix parallel_centered_covariance(const matrix& centered, thread_pool* pool);

// Largest absolute off-diagonal element; requires a square matrix.
// Useful for verifying orthogonality (M^T M ~ I) in tests.
double max_off_diagonal(const matrix& a);

}  // namespace netdiag
