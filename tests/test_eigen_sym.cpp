#include "linalg/eigen_sym.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>

#include "linalg/ops.h"

namespace netdiag {
namespace {

matrix random_symmetric(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            a(i, j) = dist(rng);
            a(j, i) = a(i, j);
        }
    }
    return a;
}

// A V = V diag(lambda), columns orthonormal, eigenvalues descending.
void check_decomposition(const matrix& a, const sym_eigen_result& eig, double tol) {
    const std::size_t n = a.rows();
    ASSERT_EQ(eig.eigenvalues.size(), n);
    ASSERT_EQ(eig.eigenvectors.rows(), n);
    ASSERT_EQ(eig.eigenvectors.cols(), n);

    for (std::size_t j = 0; j + 1 < n; ++j) {
        EXPECT_GE(eig.eigenvalues[j], eig.eigenvalues[j + 1] - tol);
    }

    const matrix vtv = multiply(transpose(eig.eigenvectors), eig.eigenvectors);
    EXPECT_TRUE(approx_equal(vtv, matrix::identity(n), 1e-9)) << "eigenvectors not orthonormal";

    const matrix av = multiply(a, eig.eigenvectors);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(av(i, j), eig.eigenvalues[j] * eig.eigenvectors(i, j), tol)
                << "A v != lambda v at (" << i << ", " << j << ")";
        }
    }
}

TEST(SymEigen, DiagonalMatrix) {
    const matrix a{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}};
    const sym_eigen_result eig = sym_eigen(a);
    EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
    EXPECT_NEAR(eig.eigenvalues[1], 2.0, 1e-12);
    EXPECT_NEAR(eig.eigenvalues[2], 1.0, 1e-12);
}

TEST(SymEigen, KnownTwoByTwo) {
    // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
    const matrix a{{2.0, 1.0}, {1.0, 2.0}};
    const sym_eigen_result eig = sym_eigen(a);
    EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
    EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-12);
    check_decomposition(a, eig, 1e-10);
}

TEST(SymEigen, SingleElement) {
    const matrix a{{5.0}};
    const sym_eigen_result eig = sym_eigen(a);
    ASSERT_EQ(eig.eigenvalues.size(), 1u);
    EXPECT_DOUBLE_EQ(eig.eigenvalues[0], 5.0);
}

TEST(SymEigen, RejectsNonSquare) {
    EXPECT_THROW(sym_eigen(matrix(2, 3, 0.0)), std::invalid_argument);
}

TEST(SymEigen, RejectsAsymmetric) {
    const matrix a{{1.0, 2.0}, {0.0, 1.0}};
    EXPECT_THROW(sym_eigen(a), std::invalid_argument);
}

TEST(SymEigen, TraceEqualsEigenvalueSum) {
    const matrix a = random_symmetric(12, 42);
    const sym_eigen_result eig = sym_eigen(a);
    double lambda_sum = 0.0;
    for (double l : eig.eigenvalues) lambda_sum += l;
    EXPECT_NEAR(lambda_sum, trace(a), 1e-9);
}

TEST(SymEigenJacobi, AgreesWithQLOnEigenvalues) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const matrix a = random_symmetric(9, seed);
        const sym_eigen_result ql = sym_eigen(a);
        const sym_eigen_result jac = sym_eigen_jacobi(a);
        for (std::size_t i = 0; i < 9; ++i) {
            EXPECT_NEAR(ql.eigenvalues[i], jac.eigenvalues[i], 1e-8) << "seed " << seed;
        }
    }
}

TEST(SymEigenJacobi, FullDecompositionProperty) {
    const matrix a = random_symmetric(7, 77);
    check_decomposition(a, sym_eigen_jacobi(a), 1e-9);
}

class SymEigenSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymEigenSizes, DecompositionPropertyHolds) {
    const std::size_t n = GetParam();
    const matrix a = random_symmetric(n, 100 + n);
    check_decomposition(a, sym_eigen(a), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(VariousSizes, SymEigenSizes,
                         ::testing::Values<std::size_t>(2, 3, 5, 8, 13, 21, 34, 49));

TEST(SymEigen, PositiveSemidefiniteHasNonNegativeEigenvalues) {
    // Gram matrices are PSD by construction.
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    matrix b(6, 4);
    for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = dist(rng);
    const sym_eigen_result eig = sym_eigen(gram(b));
    for (double l : eig.eigenvalues) EXPECT_GE(l, -1e-10);
}

TEST(SymEigen, RepeatedEigenvaluesHandled) {
    // 2 * I has eigenvalue 2 with multiplicity 3.
    matrix a = matrix::identity(3);
    for (std::size_t i = 0; i < 3; ++i) a(i, i) = 2.0;
    const sym_eigen_result eig = sym_eigen(a);
    for (double l : eig.eigenvalues) EXPECT_NEAR(l, 2.0, 1e-12);
    check_decomposition(a, eig, 1e-10);
}

TEST(SymEigen, RankDeficientMatrix) {
    // Outer product v v^T has rank 1: eigenvalues {|v|^2, 0, 0}.
    const vec v{1.0, 2.0, 2.0};
    const matrix a = outer(v, v);
    const sym_eigen_result eig = sym_eigen(a);
    EXPECT_NEAR(eig.eigenvalues[0], 9.0, 1e-10);
    EXPECT_NEAR(eig.eigenvalues[1], 0.0, 1e-10);
    EXPECT_NEAR(eig.eigenvalues[2], 0.0, 1e-10);
}

// ---------------------------------------------------------------------------
// sym_spectrum: sym_eigen's eigenvalues bit for bit, and its eigenvectors
// to rounding, formed on demand from the reflectors and recorded rotations.
// sym_eigen_jacobi is the independent reference.
// ---------------------------------------------------------------------------

// P P^T for columns [first, first + count) of v: the projector a cluster
// of equal eigenvalues determines, whatever basis spans it.
matrix span_projector(const matrix& v, std::size_t first, std::size_t count) {
    const std::size_t n = v.rows();
    matrix p(n, n, 0.0);
    for (std::size_t k = first; k < first + count; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) p(i, j) += v(i, k) * v(j, k);
        }
    }
    return p;
}

double max_abs_difference(const matrix& a, const matrix& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
    }
    return worst;
}

// Eigenvalues memcmp-equal to sym_eigen's; every column within 1e-12 of
// sym_eigen's (same sign) and orthonormal within 1e-13.
void expect_spectrum_matches_sym_eigen(const matrix& a) {
    const std::size_t n = a.rows();
    const sym_eigen_result full = sym_eigen(a);
    const sym_spectrum spectrum(a);
    ASSERT_EQ(spectrum.dimension(), n);
    ASSERT_EQ(spectrum.eigenvalues().size(), n);
    EXPECT_EQ(std::memcmp(spectrum.eigenvalues().data(), full.eigenvalues.data(),
                          n * sizeof(double)),
              0);
    const matrix axes = spectrum.eigenvectors(0, n);
    ASSERT_EQ(axes.rows(), n);
    ASSERT_EQ(axes.cols(), n);
    EXPECT_LT(max_abs_difference(axes, full.eigenvectors), 1e-12);
    const matrix gram_v = multiply(transpose(axes), axes);
    EXPECT_LT(max_abs_difference(gram_v, matrix::identity(n)), 1e-13);
}

TEST(SymSpectrum, MatchesSymEigenOnRandomMatrices) {
    for (const std::size_t n : {1u, 2u, 3u, 41u, 156u}) {
        SCOPED_TRACE(n);
        expect_spectrum_matches_sym_eigen(random_symmetric(n, 500 + n));
    }
}

TEST(SymSpectrum, MatchesSymEigenOnCovariances) {
    // Covariance spectra fall over decades, like a served fit's.
    for (const std::size_t n : {41u, 156u}) {
        SCOPED_TRACE(n);
        std::mt19937_64 rng(600 + n);
        std::normal_distribution<double> gauss(0.0, 1.0);
        matrix y(2 * n, n, 0.0);
        for (std::size_t r = 0; r < y.rows(); ++r) {
            const double trend = std::sin(static_cast<double>(r) / 9.0);
            for (std::size_t c = 0; c < n; ++c) {
                y(r, c) = 50.0 * trend * (1.0 + 0.01 * static_cast<double>(c)) + gauss(rng);
            }
        }
        expect_spectrum_matches_sym_eigen(column_covariance(y));
    }
}

TEST(SymSpectrum, ColumnsDoNotDependOnTheBlockThatFormedThem) {
    const matrix a = random_symmetric(41, 77);
    const sym_spectrum spectrum(a);
    const matrix all = spectrum.eigenvectors(0, 10);
    for (const std::size_t first : {0u, 3u, 9u}) {
        const matrix one = spectrum.eigenvectors(first, 1);
        for (std::size_t i = 0; i < 41; ++i) {
            ASSERT_EQ(one(i, 0), all(i, first)) << "axis " << first << " row " << i;
        }
    }
    EXPECT_EQ(spectrum.eigenvectors(41, 0).size(), 0u);
    EXPECT_THROW((void)spectrum.eigenvectors(40, 2), std::out_of_range);
    EXPECT_THROW((void)spectrum.eigenvectors(42, 0), std::out_of_range);
}

TEST(SymSpectrum, AgreesWithJacobi) {
    for (const std::size_t n : {2u, 3u, 9u, 41u}) {
        SCOPED_TRACE(n);
        const matrix a = random_symmetric(n, 800 + n);
        const sym_spectrum spectrum(a);
        const sym_eigen_result jac = sym_eigen_jacobi(a);
        const matrix axes = spectrum.eigenvectors(0, n);
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_NEAR(spectrum.eigenvalues()[k], jac.eigenvalues[k], 1e-10) << "value " << k;
            EXPECT_LT(max_abs_difference(span_projector(axes, k, 1),
                                         span_projector(jac.eigenvectors, k, 1)),
                      1e-8)
                << "axis " << k;
        }
    }
}

TEST(SymSpectrum, ZeroIdentityAndRepeatedEigenvalues) {
    // Only the projector onto each cluster's span is determined.
    const std::size_t n = 6;
    // H D H with H a Householder reflector: eigenvalues 3, 2, 2, 2, 1, 1.
    const vec u{1.0, -2.0, 0.5, 3.0, -1.0, 2.0};
    const double uu = dot(u, u);
    matrix h = matrix::identity(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) h(i, j) -= 2.0 * u[i] * u[j] / uu;
    }
    matrix d(n, n, 0.0);
    const double values[] = {3.0, 2.0, 2.0, 2.0, 1.0, 1.0};
    for (std::size_t i = 0; i < n; ++i) d(i, i) = values[i];
    matrix repeated = multiply(multiply(h, d), h);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) repeated(i, j) = repeated(j, i);
    }

    struct cluster {
        std::size_t first;
        std::size_t count;
    };
    const std::vector<std::pair<matrix, std::vector<cluster>>> cases = {
        {matrix(n, n, 0.0), {{0, n}}},
        {matrix::identity(n), {{0, n}}},
        {repeated, {{0, 1}, {1, 3}, {4, 2}}},
    };
    for (const auto& [a, clusters] : cases) {
        const sym_eigen_result full = sym_eigen(a);
        const sym_eigen_result jac = sym_eigen_jacobi(a);
        const sym_spectrum spectrum(a);
        EXPECT_EQ(std::memcmp(spectrum.eigenvalues().data(), full.eigenvalues.data(),
                              n * sizeof(double)),
                  0);
        const matrix axes = spectrum.eigenvectors(0, n);
        EXPECT_LT(max_abs_difference(multiply(transpose(axes), axes), matrix::identity(n)),
                  1e-13);
        for (const cluster& c : clusters) {
            const matrix p = span_projector(axes, c.first, c.count);
            EXPECT_LT(max_abs_difference(p, span_projector(full.eigenvectors, c.first, c.count)),
                      1e-12)
                << "cluster at " << c.first;
            EXPECT_LT(max_abs_difference(p, span_projector(jac.eigenvectors, c.first, c.count)),
                      1e-9)
                << "cluster at " << c.first;
        }
    }
}

TEST(SymSpectrum, ValidatesLikeSymEigen) {
    EXPECT_THROW(sym_spectrum(matrix(2, 3, 0.0)), std::invalid_argument);
    EXPECT_THROW(sym_spectrum(matrix{{1.0, 2.0}, {0.0, 1.0}}), std::invalid_argument);
    EXPECT_EQ(sym_spectrum(matrix{}).dimension(), 0u);
}

}  // namespace
}  // namespace netdiag
