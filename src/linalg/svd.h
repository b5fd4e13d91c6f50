// Thin singular value decomposition A = U * diag(s) * V^T.
//
// Implemented with one-sided Jacobi rotations: numerically very accurate
// (relative accuracy even for tiny singular values) and simple enough to
// audit. For the matrix shapes this library cares about (about 1000 x 50
// link measurement matrices) a handful of sweeps suffices. The column
// moments are accumulated over fixed 512-row blocks in block order, so
// the rounding pattern is a function of the shape only. It runs serially:
// no caller factors a matrix tall enough to pay for sharding the rotation
// rounds (docs/ARCHITECTURE.md, "Which kernels shard").
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace netdiag {

struct svd_result {
    matrix u;                       // rows(a) x k, orthonormal columns
    std::vector<double> s;          // k singular values, descending, >= 0
    matrix v;                       // cols(a) x k, orthonormal columns
};

// Thin SVD with k = min(rows, cols). Columns of u/v corresponding to zero
// singular values are completed to an orthonormal basis, so u and v always
// have orthonormal columns. Throws netdiag::numerical_error if the Jacobi
// sweeps fail to converge (pathological input).
svd_result svd(const matrix& a);

}  // namespace netdiag
