#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/error.h"
#include "linalg/ops.h"
#include "linalg/qr.h"

namespace netdiag {
namespace {

matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = dist(rng);
    return m;
}

TEST(Qr, ThinDecompositionReconstructs) {
    const matrix a = random_matrix(10, 4, 1);
    const qr_result f = qr_decompose(a);
    EXPECT_TRUE(approx_equal(multiply(f.q, f.r), a, 1e-10));
    EXPECT_TRUE(approx_equal(multiply(transpose(f.q), f.q), matrix::identity(4), 1e-10));
}

TEST(Qr, RIsUpperTriangular) {
    const matrix a = random_matrix(6, 3, 2);
    const qr_result f = qr_decompose(a);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(f.r(i, j), 0.0);
    }
}

TEST(Qr, RejectsWideMatrix) {
    EXPECT_THROW(qr_decompose(matrix(2, 5, 1.0)), std::invalid_argument);
}

TEST(LeastSquares, ExactSystemRecovered) {
    const matrix a = random_matrix(8, 3, 3);
    const vec x_true{1.5, -2.0, 0.25};
    const vec b = multiply(a, x_true);
    const vec x = least_squares(a, b);
    EXPECT_TRUE(approx_equal(x, x_true, 1e-10));
}

TEST(LeastSquares, MinimizesResidualNorm) {
    // Overdetermined inconsistent system: check the normal equations
    // A^T (A x - b) = 0 hold at the solution.
    const matrix a = random_matrix(20, 4, 4);
    const vec b = random_matrix(20, 1, 5).column(0);
    const vec x = least_squares(a, b);
    vec residual = multiply(a, x);
    for (std::size_t i = 0; i < residual.size(); ++i) residual[i] -= b[i];
    const vec grad = multiply_transposed(a, residual);
    for (double g : grad) EXPECT_NEAR(g, 0.0, 1e-10);
}

TEST(LeastSquares, RankDeficientThrows) {
    matrix a(5, 2, 0.0);
    for (std::size_t r = 0; r < 5; ++r) {
        a(r, 0) = static_cast<double>(r);
        a(r, 1) = 2.0 * static_cast<double>(r);  // dependent column
    }
    const vec b(5, 1.0);
    EXPECT_THROW(least_squares(a, b), numerical_error);
}

TEST(LeastSquares, RhsSizeMismatchThrows) {
    const matrix a(4, 2, 1.0);
    const vec b(3, 1.0);
    EXPECT_THROW(least_squares(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace netdiag
