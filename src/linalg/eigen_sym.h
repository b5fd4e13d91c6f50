// Symmetric eigendecomposition.
//
// Two independent implementations are provided:
//  - sym_eigen():        Householder tridiagonalization followed by implicit
//                        QL iteration. O(n^3), the fast default.
//  - sym_eigen_jacobi(): cyclic Jacobi rotations. Slower but very robust and
//                        simple; used as a cross-check in the test suite.
//
// Both return eigenvalues sorted in descending order with eigenvectors as
// the matching columns of an orthogonal matrix.
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace netdiag {

class thread_pool;

struct sym_eigen_result {
    std::vector<double> eigenvalues;  // descending
    matrix eigenvectors;              // column i pairs with eigenvalues[i]
};

// Eigendecomposition of a symmetric matrix via tridiagonalization + QL.
// Throws std::invalid_argument if a is not square or not symmetric (up to
// a small relative tolerance), netdiag::numerical_error on non-convergence.
sym_eigen_result sym_eigen(const matrix& a);

// Same decomposition with the O(n) eigenvector-rotation updates sharded
// across the pool: each QL iteration batches its rotation sequence and
// applies it row-parallel. Every matrix element sees the same arithmetic
// in the same order for any pool size, so the result is bit-identical to
// the serial call (pool == nullptr degrades to it). The pool only engages
// above a dimension threshold where the sharding amortizes.
sym_eigen_result sym_eigen(const matrix& a, thread_pool* pool);

// Same contract, computed with cyclic Jacobi rotations.
sym_eigen_result sym_eigen_jacobi(const matrix& a);

// Jacobi with the per-rotation O(n) row updates sharded across the pool;
// bit-identical to the serial call for any pool size. The pool engages
// only from global_tuning().jacobi_parallel_min_dim up (default 2048: a
// per-rotation dispatch amortizes only for very large matrices).
sym_eigen_result sym_eigen_jacobi(const matrix& a, thread_pool* pool);

}  // namespace netdiag
