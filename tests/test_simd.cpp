#include "engine/simd.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "engine/thread_pool.h"
#include "linalg/ops.h"
#include "linalg/svd.h"
#include "measurement/centering.h"
#include "subspace/model.h"

namespace netdiag {
namespace {

// ---------------------------------------------------------------------------
// Primitive parity: the compiled simd:: path against the always-available
// scalar oracle simd::fallback::. The fixed 4-logical-lane design (no FMA,
// -ffp-contract=off, lane order (l0+l1)+(l2+l3)+tail) makes the two paths
// bit-identical, not merely close, so every comparison below is EXPECT_EQ.
// On a NETDIAG_NO_SIMD (or non-AVX2/NEON) build simd:: aliases fallback::
// and the suite degenerates to a tautology -- the interesting run is the
// vectorized build, where this is the SIMD-vs-scalar contract check.
// ---------------------------------------------------------------------------

// Lengths straddling every boundary the kernels care about: the 4-lane main
// body, the 1-3 element tail, and zero/one-element degenerate shapes.
const std::size_t k_lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1003};

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    // Mix magnitudes so lane reassociation would actually show up if the
    // lane order ever diverged between the paths.
    std::uniform_real_distribution<double> mag(-1.0, 1.0);
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = mag(rng) * (1.0 + 1e6 * ((i % 7) == 0));
    }
    return v;
}

TEST(SimdPrimitives, IsaNameIsKnown) {
    const std::string isa = simd::isa_name();
    EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "scalar") << isa;
    EXPECT_EQ(simd::lanes, 4u);
}

TEST(SimdPrimitives, DotMatchesFallbackBitForBit) {
    for (const std::size_t n : k_lengths) {
        const std::vector<double> a = random_vec(n, 100 + n);
        const std::vector<double> b = random_vec(n, 200 + n);
        EXPECT_EQ(simd::dot(a.data(), b.data(), n), simd::fallback::dot(a.data(), b.data(), n))
            << "n=" << n;
    }
}

TEST(SimdPrimitives, DotMatchesFixedLaneOrderReference) {
    // Pin the documented lane contract itself: lane l sums indices with
    // i % 4 == l, lanes combine as (l0+l1)+(l2+l3), then + tail.
    for (const std::size_t n : k_lengths) {
        const std::vector<double> a = random_vec(n, 300 + n);
        const std::vector<double> b = random_vec(n, 400 + n);
        double lane[4] = {0.0, 0.0, 0.0, 0.0};
        std::size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            for (std::size_t l = 0; l < 4; ++l) lane[l] += a[i + l] * b[i + l];
        }
        double tail = 0.0;
        for (; i < n; ++i) tail += a[i] * b[i];
        const double expected = ((lane[0] + lane[1]) + (lane[2] + lane[3])) + tail;
        EXPECT_EQ(simd::dot(a.data(), b.data(), n), expected) << "n=" << n;
    }
}

TEST(SimdPrimitives, Dot3MatchesFallbackBitForBit) {
    for (const std::size_t n : k_lengths) {
        const std::vector<double> a = random_vec(n, 500 + n);
        const std::vector<double> b = random_vec(n, 600 + n);
        double aa = -1.0, bb = -1.0, ab = -1.0;
        double faa = -2.0, fbb = -2.0, fab = -2.0;
        simd::dot3(a.data(), b.data(), n, aa, bb, ab);
        simd::fallback::dot3(a.data(), b.data(), n, faa, fbb, fab);
        EXPECT_EQ(aa, faa) << "n=" << n;
        EXPECT_EQ(bb, fbb) << "n=" << n;
        EXPECT_EQ(ab, fab) << "n=" << n;
    }
}

TEST(SimdPrimitives, Dot3AgreesWithThreeDots) {
    // dot3 is a fused traversal of the same three lane-structured sums.
    for (const std::size_t n : k_lengths) {
        const std::vector<double> a = random_vec(n, 700 + n);
        const std::vector<double> b = random_vec(n, 800 + n);
        double aa = 0.0, bb = 0.0, ab = 0.0;
        simd::dot3(a.data(), b.data(), n, aa, bb, ab);
        EXPECT_EQ(aa, simd::dot(a.data(), a.data(), n)) << "n=" << n;
        EXPECT_EQ(bb, simd::dot(b.data(), b.data(), n)) << "n=" << n;
        EXPECT_EQ(ab, simd::dot(a.data(), b.data(), n)) << "n=" << n;
    }
}

TEST(SimdPrimitives, AxpyMatchesFallbackBitForBit) {
    for (const std::size_t n : k_lengths) {
        const std::vector<double> x = random_vec(n, 900 + n);
        const std::vector<double> y0 = random_vec(n, 1000 + n);
        for (const double alpha : {0.0, 1.0, -1.75, 3.0e-9}) {
            std::vector<double> y_simd = y0;
            std::vector<double> y_ref = y0;
            simd::axpy(alpha, x.data(), y_simd.data(), n);
            simd::fallback::axpy(alpha, x.data(), y_ref.data(), n);
            EXPECT_EQ(y_simd, y_ref) << "n=" << n << " alpha=" << alpha;
        }
    }
}

TEST(SimdPrimitives, RotatePairMatchesFallbackBitForBit) {
    const double c = 0.8036056714343891;  // cos/sin of an arbitrary angle
    const double s = 0.5951613369926473;
    for (const std::size_t n : k_lengths) {
        const std::vector<double> x0 = random_vec(n, 1100 + n);
        const std::vector<double> y0 = random_vec(n, 1200 + n);
        std::vector<double> xs = x0, ys = y0, xr = x0, yr = y0;
        simd::rotate_pair(xs.data(), ys.data(), n, c, s);
        simd::fallback::rotate_pair(xr.data(), yr.data(), n, c, s);
        EXPECT_EQ(xs, xr) << "n=" << n;
        EXPECT_EQ(ys, yr) << "n=" << n;
    }
}

// ---------------------------------------------------------------------------
// Kernel-level parity: every kernel that routes through engine/simd.h,
// driven at shapes past its fixed block widths so the last block is
// ragged. Where a kernel shards over a pool, the pooled result must equal
// the serial result bit-for-bit -- the fixed-block contract -- and every
// kernel still agrees with its plain reference to rounding.
// ---------------------------------------------------------------------------

TEST(SimdPrimitives, GramUpperMatchesFallbackBitForBit) {
    // Widths straddle the 4 x 8 tiles, the 4 x 4 edge tile, the scalar
    // edge columns and the m % 4 scalar rows; g starts non-zero, so the
    // accumulation into existing values is compared too.
    for (const std::size_t m :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 11u, 12u, 13u, 16u, 17u, 23u, 41u}) {
        for (const std::size_t rows : {0u, 1u, 2u, 3u, 5u, 17u, 256u}) {
            const std::vector<double> x = random_vec(rows * m, 700 + 31 * m + rows);
            std::vector<double> tiled = random_vec(m * m, 900 + m);
            std::vector<double> reference = tiled;
            simd::gram_upper(x.data(), rows, m, tiled.data());
            simd::fallback::gram_upper(x.data(), rows, m, reference.data());
            for (std::size_t i = 0; i < m; ++i) {
                for (std::size_t j = i; j < m; ++j) {
                    ASSERT_EQ(tiled[i * m + j], reference[i * m + j])
                        << "m=" << m << " rows=" << rows << " (" << i << ", " << j << ")";
                }
            }
        }
    }
}

matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    matrix a(rows, cols, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = gauss(rng);
    return a;
}

TEST(SimdKernels, BlockedCovarianceParityAcrossOddBlockShapes) {
    // 601 rows over 256-row blocks: 3 blocks, the last one ragged (89 rows).
    const matrix y = random_matrix(601, 17, 21);
    const matrix centered = center_columns(y).centered;
    const matrix serial = parallel_centered_covariance(centered, nullptr);
    for (std::size_t threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        ASSERT_EQ(parallel_centered_covariance(centered, &pool), serial)
            << "threads=" << threads;
    }
    // And the blocked result still agrees with the one-pass serial kernel
    // to rounding (they reassociate the row sum differently).
    const matrix reference = column_covariance(y);
    double scale = 0.0;
    for (std::size_t i = 0; i < reference.rows(); ++i) {
        scale = std::max(scale, std::abs(reference(i, i)));
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_NEAR(serial.data()[i], reference.data()[i], 1e-12 * scale) << "index " << i;
    }
}

TEST(SimdKernels, SvdParityAcrossOddBlockShapes) {
    // 600 and 1100 rows straddle the 512-row moment blocks raggedly; the
    // wide shape factors its 600-row transpose.
    for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{600, 11},
                                     std::pair<std::size_t, std::size_t>{1100, 8},
                                     std::pair<std::size_t, std::size_t>{9, 600}}) {
        const matrix a = random_matrix(rows, cols, 2000 + rows + cols);
        const svd_result f = svd(a);
        // Singular vectors stay orthonormal under the SIMD moment path...
        for (const matrix* basis : {&f.u, &f.v}) {
            for (std::size_t i = 0; i < basis->cols(); ++i) {
                for (std::size_t j = i; j < basis->cols(); ++j) {
                    double acc = 0.0;
                    for (std::size_t r = 0; r < basis->rows(); ++r) {
                        acc += (*basis)(r, i) * (*basis)(r, j);
                    }
                    EXPECT_NEAR(acc, i == j ? 1.0 : 0.0, 1e-9)
                        << rows << "x" << cols << " cols " << i << "," << j;
                }
            }
        }
        // ...and U diag(s) V^T reproduces the input.
        double worst = 0.0;
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
                double acc = 0.0;
                for (std::size_t k = 0; k < f.s.size(); ++k) acc += f.u(r, k) * f.s[k] * f.v(c, k);
                worst = std::max(worst, std::abs(acc - a(r, c)));
            }
        }
        EXPECT_LT(worst, 1e-9) << rows << "x" << cols;
    }
}

TEST(SimdKernels, ResidualProjectionParityAcrossOddLinkBlocks) {
    // m = 300 links over 256-link blocks: 2 blocks, the last one ragged
    // (44 links). spe_series shards its rows: 400 * 300 * rank >= 2^15.
    const matrix y = random_matrix(400, 300, 24);
    separation_config sep;
    sep.fixed_rank = 6;  // white noise has no 3-sigma structure to separate
    const subspace_model serial_model = subspace_model::fit(y, sep);
    ASSERT_EQ(serial_model.normal_rank(), 6u);
    const vec serial_spe = serial_model.spe_series(y);

    std::mt19937_64 rng(25);
    std::normal_distribution<double> gauss(0.0, 1.0);
    vec x(300, 0.0);
    for (double& v : x) v = gauss(rng);
    const vec serial_resid = serial_model.project_direction_residual(x);
    const vec dense = multiply(serial_model.dense_residual_projector(), x);
    for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_NEAR(serial_resid[i], dense[i], 1e-9) << "link " << i;
    }

    for (std::size_t threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        const subspace_model pooled_model = subspace_model::fit(y, sep, &pool);
        ASSERT_EQ(pooled_model.normal_rank(), serial_model.normal_rank()) << "threads=" << threads;
        ASSERT_EQ(pooled_model.project_direction_residual(x), serial_resid)
            << "threads=" << threads;
        ASSERT_EQ(pooled_model.spe_series(y, &pool), serial_spe) << "threads=" << threads;
    }
}

}  // namespace
}  // namespace netdiag
