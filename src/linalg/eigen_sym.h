// Symmetric eigendecomposition.
//
// Two independent implementations are provided:
//  - sym_eigen():        Householder tridiagonalization followed by implicit
//                        QL iteration. O(n^3), the fast default.
//  - sym_eigen_jacobi(): cyclic Jacobi rotations. Slower but very robust and
//                        simple; used as a cross-check in the test suite.
//
// Both return eigenvalues sorted in descending order with eigenvectors as
// the matching columns of an orthogonal matrix. Both run serially; no
// caller's m x m covariance is large enough for sharded rotations to
// engage (docs/ARCHITECTURE.md, "Which kernels shard").
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace netdiag {

struct sym_eigen_result {
    std::vector<double> eigenvalues;  // descending
    matrix eigenvectors;              // column i pairs with eigenvalues[i]
};

// Eigendecomposition of a symmetric matrix via tridiagonalization + QL.
// Throws std::invalid_argument if a is not square or not symmetric (up to
// a small relative tolerance), netdiag::numerical_error on non-convergence.
sym_eigen_result sym_eigen(const matrix& a);

// Same contract, computed with cyclic Jacobi rotations.
sym_eigen_result sym_eigen_jacobi(const matrix& a);

}  // namespace netdiag
