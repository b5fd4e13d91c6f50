#include "linalg/svd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/ops.h"

namespace netdiag {
namespace {

matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = dist(rng);
    return m;
}

// Reconstruction U diag(s) V^T == A, orthonormal factors, descending s.
void check_svd(const matrix& a, const svd_result& f, double tol) {
    const std::size_t k = std::min(a.rows(), a.cols());
    ASSERT_EQ(f.s.size(), k);
    ASSERT_EQ(f.u.rows(), a.rows());
    ASSERT_EQ(f.u.cols(), k);
    ASSERT_EQ(f.v.rows(), a.cols());
    ASSERT_EQ(f.v.cols(), k);

    for (std::size_t i = 0; i + 1 < k; ++i) EXPECT_GE(f.s[i], f.s[i + 1] - tol);
    for (double s : f.s) EXPECT_GE(s, 0.0);

    EXPECT_TRUE(approx_equal(multiply(transpose(f.u), f.u), matrix::identity(k), 1e-9));
    EXPECT_TRUE(approx_equal(multiply(transpose(f.v), f.v), matrix::identity(k), 1e-9));

    matrix us = f.u;
    for (std::size_t r = 0; r < us.rows(); ++r) {
        for (std::size_t c = 0; c < k; ++c) us(r, c) *= f.s[c];
    }
    EXPECT_TRUE(approx_equal(multiply(us, transpose(f.v)), a, tol));
}

TEST(Svd, DiagonalMatrix) {
    const matrix a{{3.0, 0.0}, {0.0, 4.0}};
    const svd_result f = svd(a);
    EXPECT_NEAR(f.s[0], 4.0, 1e-12);
    EXPECT_NEAR(f.s[1], 3.0, 1e-12);
    check_svd(a, f, 1e-10);
}

TEST(Svd, KnownSingularValues) {
    // A = [[1, 0], [0, 1], [1, 1]]: A^T A = [[2,1],[1,2]], eigenvalues 3, 1
    // so singular values are sqrt(3) and 1.
    const matrix a{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
    const svd_result f = svd(a);
    EXPECT_NEAR(f.s[0], std::sqrt(3.0), 1e-12);
    EXPECT_NEAR(f.s[1], 1.0, 1e-12);
    check_svd(a, f, 1e-10);
}

TEST(Svd, TallMatrixProperty) {
    const matrix a = random_matrix(40, 7, 11);
    check_svd(a, svd(a), 1e-9);
}

TEST(Svd, WideMatrixProperty) {
    const matrix a = random_matrix(5, 17, 12);
    check_svd(a, svd(a), 1e-9);
}

TEST(Svd, SquareMatrixProperty) {
    const matrix a = random_matrix(9, 9, 13);
    check_svd(a, svd(a), 1e-9);
}

TEST(Svd, EmptyMatrix) {
    const svd_result f = svd(matrix{});
    EXPECT_TRUE(f.s.empty());
}

TEST(Svd, RankDeficientCompletesOrthonormalBasis) {
    // Two identical columns: rank 1, second singular value 0, but U and V
    // must still have orthonormal columns.
    matrix a(5, 2, 0.0);
    for (std::size_t r = 0; r < 5; ++r) {
        a(r, 0) = static_cast<double>(r + 1);
        a(r, 1) = static_cast<double>(r + 1);
    }
    const svd_result f = svd(a);
    EXPECT_NEAR(f.s[1], 0.0, 1e-10);
    EXPECT_TRUE(approx_equal(multiply(transpose(f.u), f.u), matrix::identity(2), 1e-9));
    check_svd(a, f, 1e-9);
}

TEST(Svd, ZeroMatrix) {
    const matrix a(4, 3, 0.0);
    const svd_result f = svd(a);
    for (double s : f.s) EXPECT_DOUBLE_EQ(s, 0.0);
    EXPECT_TRUE(approx_equal(multiply(transpose(f.u), f.u), matrix::identity(3), 1e-9));
}

TEST(Svd, SingularValuesMatchEigenvaluesOfGram) {
    const matrix a = random_matrix(30, 6, 21);
    const svd_result f = svd(a);
    // sigma_i^2 should equal the eigenvalues of A^T A; cross-check via the
    // Frobenius identity sum sigma^2 = ||A||_F^2.
    double sum_s2 = 0.0;
    for (double s : f.s) sum_s2 += s * s;
    const double fro = frobenius_norm(a);
    EXPECT_NEAR(sum_s2, fro * fro, 1e-9);
}

class SvdShapes : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SvdShapes, ReconstructionHolds) {
    const auto [rows, cols] = GetParam();
    const matrix a = random_matrix(rows, cols, 1000 + rows * 31 + cols);
    check_svd(a, svd(a), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(VariousShapes, SvdShapes,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                                           std::pair<std::size_t, std::size_t>{1, 8},
                                           std::pair<std::size_t, std::size_t>{8, 1},
                                           std::pair<std::size_t, std::size_t>{10, 10},
                                           std::pair<std::size_t, std::size_t>{64, 8},
                                           std::pair<std::size_t, std::size_t>{8, 64},
                                           std::pair<std::size_t, std::size_t>{100, 49}));

}  // namespace
}  // namespace netdiag
