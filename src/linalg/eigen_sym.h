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
//
// sym_spectrum runs sym_eigen's reduction and QL recurrence without
// forming the eigenvectors: it keeps the Householder reflectors and records
// the QL rotations, and forms any eigenvector later, on demand.
#pragma once

#include <cstddef>
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

// The eigenvalues of sym_eigen(a), bit for bit, with the eigenvectors left
// in factored form: the Householder reflectors of the reduction and the
// rotations of the QL iteration. Forming k eigenvectors costs one replay of
// the rotations over k-wide rows plus k back-transforms, against the m^3
// work of accumulating all m. Same validation and errors as sym_eigen.
class sym_spectrum {
public:
    explicit sym_spectrum(const matrix& a);

    std::size_t dimension() const noexcept { return eigenvalues_.size(); }

    // Descending, bit-equal to sym_eigen(a).eigenvalues.
    const std::vector<double>& eigenvalues() const noexcept { return eigenvalues_; }

    // Columns first .. first + count - 1 of sym_eigen(a).eigenvectors, to
    // rounding and with the same signs, as an m x count matrix. Each column
    // is computed independently of the others, so its bits do not depend
    // on which block formed it. count == 0 gives the empty 0 x 0 matrix.
    // Throws std::out_of_range past dimension().
    matrix eigenvectors(std::size_t first, std::size_t count) const;

private:
    std::vector<double> eigenvalues_;
    std::vector<std::size_t> order_;  // sorted position -> QL index
    matrix reflectors_;               // row k: reflector k in entries 0..k-1
    std::vector<double> reflector_h_;
    // QL rotation batches in recording order: batch b holds rotations
    // [batch_end_[b-1], batch_end_[b]) acting on rows (hi - 1 - j, hi - j).
    std::vector<double> rot_c_;
    std::vector<double> rot_s_;
    std::vector<std::size_t> batch_hi_;
    std::vector<std::size_t> batch_end_;
};

}  // namespace netdiag
