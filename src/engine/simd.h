// SIMD kernel layer: the vector primitives behind the hot inner loops
// (Gram/covariance accumulation, Jacobi moment reductions, paired-column
// rotations, low-rank residual projection).
//
// One instruction set is chosen at compile time -- AVX2 on x86-64, NEON on
// aarch64, a scalar fallback everywhere else or when NETDIAG_NO_SIMD is
// defined (CMake option of the same name). There is no runtime dispatch:
// a binary computes the same bits on every machine it runs on.
//
// Determinism contract (see docs/ARCHITECTURE.md):
//
//  * Every reducing primitive accumulates into exactly NETDIAG_SIMD_LANES
//    (= 4) logical lanes regardless of ISA -- lane l sums the elements at
//    indices i with i % 4 == l over the main body, the remainder tail is
//    summed separately in index order, and the lanes are combined in the
//    fixed order (l0+l1) + (l2+l3), then + tail. AVX2 maps the four lanes
//    onto one 256-bit register; NEON onto two 128-bit registers; the
//    scalar fallback onto four independent accumulators. Multiplies and
//    adds are never fused (no FMA; the build also pins -ffp-contract=off),
//    so all three paths perform the identical rounding sequence and the
//    SIMD and scalar builds stay bit-identical on top of the tolerance
//    contract the parity suite enforces.
//  * Element-wise primitives (axpy, rotate_pair, gram_upper) do the same
//    mul/add per element as the plain loops they replaced: bit-identical
//    by construction, on every path.
//  * None of these primitives depend on a thread pool. Kernels call them
//    inside fixed blocks whose widths are named constants at each kernel,
//    so pool-size bit-identity is preserved exactly as before.
#pragma once

#include <cstddef>

#if !defined(NETDIAG_NO_SIMD) && defined(__AVX2__)
#define NETDIAG_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(NETDIAG_NO_SIMD) && defined(__ARM_NEON)
#define NETDIAG_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace netdiag::simd {

// Logical lane count of every reducing primitive, on every path.
inline constexpr std::size_t lanes = 4;

// Name of the compiled instruction-set path ("avx2", "neon", "scalar").
inline const char* isa_name() noexcept {
#if defined(NETDIAG_SIMD_AVX2)
    return "avx2";
#elif defined(NETDIAG_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

// ---------------------------------------------------------------------------
// Scalar reference path. Always compiled: this is both the fallback and the
// oracle the parity suite compares the vector paths against.
// ---------------------------------------------------------------------------
namespace fallback {

inline double dot(const double* a, const double* b, std::size_t n) noexcept {
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        l0 += a[i] * b[i];
        l1 += a[i + 1] * b[i + 1];
        l2 += a[i + 2] * b[i + 2];
        l3 += a[i + 3] * b[i + 3];
    }
    double tail = 0.0;
    for (; i < n; ++i) tail += a[i] * b[i];
    return ((l0 + l1) + (l2 + l3)) + tail;
}

// The three Jacobi column moments in one pass: aa = sum a*a, bb = sum b*b,
// ab = sum a*b. Same lane structure as dot, per moment.
inline void dot3(const double* a, const double* b, std::size_t n, double& aa, double& bb,
                 double& ab) noexcept {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    double b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
    double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double x0 = a[i], x1 = a[i + 1], x2 = a[i + 2], x3 = a[i + 3];
        const double y0 = b[i], y1 = b[i + 1], y2 = b[i + 2], y3 = b[i + 3];
        a0 += x0 * x0;
        a1 += x1 * x1;
        a2 += x2 * x2;
        a3 += x3 * x3;
        b0 += y0 * y0;
        b1 += y1 * y1;
        b2 += y2 * y2;
        b3 += y3 * y3;
        c0 += x0 * y0;
        c1 += x1 * y1;
        c2 += x2 * y2;
        c3 += x3 * y3;
    }
    double ta = 0.0, tb = 0.0, tc = 0.0;
    for (; i < n; ++i) {
        ta += a[i] * a[i];
        tb += b[i] * b[i];
        tc += a[i] * b[i];
    }
    aa = ((a0 + a1) + (a2 + a3)) + ta;
    bb = ((b0 + b1) + (b2 + b3)) + tb;
    ab = ((c0 + c1) + (c2 + c3)) + tc;
}

// y[i] += alpha * x[i]. Element-wise: bit-identical to the plain loop.
inline void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

// Plane rotation of two arrays: x'[i] = c*x[i] - s*y[i],
// y'[i] = s*x[i] + c*y[i]. Element-wise, bit-identical to the plain loop.
inline void rotate_pair(double* x, double* y, std::size_t n, double c, double s) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        const double xi = x[i];
        const double yi = y[i];
        x[i] = c * xi - s * yi;
        y[i] = s * xi + c * yi;
    }
}

// Upper triangle of the Gram matrix of `rows` rows of length m (both x and
// g row-major with stride m): g[i*m + j] += sum_r x[r*m + i] * x[r*m + j]
// for every j >= i, the rows added one at a time in order, each product
// rounded before its add. Per element this is the plain row loop, so it is
// bit-identical on every path. Entries below the diagonal are scratch: the
// vector paths may add their (equal) Gram values there too.
inline void gram_upper(const double* x, std::size_t rows, std::size_t m, double* g) noexcept {
    for (std::size_t r = 0; r < rows; ++r) {
        const double* row = x + r * m;
        for (std::size_t i = 0; i < m; ++i) {
            const double xi = row[i];
            double* gi = g + i * m;
            for (std::size_t j = i; j < m; ++j) gi[j] += xi * row[j];
        }
    }
}

}  // namespace fallback

// ---------------------------------------------------------------------------
// AVX2 path: the four logical lanes live in one 256-bit register.
// ---------------------------------------------------------------------------
#if defined(NETDIAG_SIMD_AVX2)

namespace detail {
// (l0 + l1) + (l2 + l3): the fixed lane-combination order.
inline double reduce_lanes(__m256d v) noexcept {
    alignas(32) double l[4];
    _mm256_store_pd(l, v);
    return (l[0] + l[1]) + (l[2] + l[3]);
}
}  // namespace detail

inline double dot(const double* a, const double* b, std::size_t n) noexcept {
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    }
    double tail = 0.0;
    for (; i < n; ++i) tail += a[i] * b[i];
    return detail::reduce_lanes(acc) + tail;
}

inline void dot3(const double* a, const double* b, std::size_t n, double& aa, double& bb,
                 double& ab) noexcept {
    __m256d acc_aa = _mm256_setzero_pd();
    __m256d acc_bb = _mm256_setzero_pd();
    __m256d acc_ab = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d x = _mm256_loadu_pd(a + i);
        const __m256d y = _mm256_loadu_pd(b + i);
        acc_aa = _mm256_add_pd(acc_aa, _mm256_mul_pd(x, x));
        acc_bb = _mm256_add_pd(acc_bb, _mm256_mul_pd(y, y));
        acc_ab = _mm256_add_pd(acc_ab, _mm256_mul_pd(x, y));
    }
    double ta = 0.0, tb = 0.0, tc = 0.0;
    for (; i < n; ++i) {
        ta += a[i] * a[i];
        tb += b[i] * b[i];
        tc += a[i] * b[i];
    }
    aa = detail::reduce_lanes(acc_aa) + ta;
    bb = detail::reduce_lanes(acc_bb) + tb;
    ab = detail::reduce_lanes(acc_ab) + tc;
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept {
    const __m256d va = _mm256_set1_pd(alpha);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
        _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
}

inline void rotate_pair(double* x, double* y, std::size_t n, double c, double s) noexcept {
    const __m256d vc = _mm256_set1_pd(c);
    const __m256d vs = _mm256_set1_pd(s);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d xi = _mm256_loadu_pd(x + i);
        const __m256d yi = _mm256_loadu_pd(y + i);
        _mm256_storeu_pd(x + i, _mm256_sub_pd(_mm256_mul_pd(vc, xi), _mm256_mul_pd(vs, yi)));
        _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_mul_pd(vs, xi), _mm256_mul_pd(vc, yi)));
    }
    for (; i < n; ++i) {
        const double xi = x[i];
        const double yi = y[i];
        x[i] = c * xi - s * yi;
        y[i] = s * xi + c * yi;
    }
}

namespace detail {
// g[i..i+4) x [j..j+8) += the Gram of the rows: one 4 x 8 register tile,
// eight accumulators that see every row in order.
inline void gram_tile_4x8(const double* x, std::size_t rows, std::size_t m, std::size_t i,
                          std::size_t j, double* g) noexcept {
    double* g0 = g + i * m + j;
    double* g1 = g0 + m;
    double* g2 = g1 + m;
    double* g3 = g2 + m;
    __m256d a0l = _mm256_loadu_pd(g0), a0h = _mm256_loadu_pd(g0 + 4);
    __m256d a1l = _mm256_loadu_pd(g1), a1h = _mm256_loadu_pd(g1 + 4);
    __m256d a2l = _mm256_loadu_pd(g2), a2h = _mm256_loadu_pd(g2 + 4);
    __m256d a3l = _mm256_loadu_pd(g3), a3h = _mm256_loadu_pd(g3 + 4);
    for (std::size_t r = 0; r < rows; ++r) {
        const double* row = x + r * m;
        const __m256d lo = _mm256_loadu_pd(row + j);
        const __m256d hi = _mm256_loadu_pd(row + j + 4);
        __m256d b = _mm256_broadcast_sd(row + i);
        a0l = _mm256_add_pd(a0l, _mm256_mul_pd(b, lo));
        a0h = _mm256_add_pd(a0h, _mm256_mul_pd(b, hi));
        b = _mm256_broadcast_sd(row + i + 1);
        a1l = _mm256_add_pd(a1l, _mm256_mul_pd(b, lo));
        a1h = _mm256_add_pd(a1h, _mm256_mul_pd(b, hi));
        b = _mm256_broadcast_sd(row + i + 2);
        a2l = _mm256_add_pd(a2l, _mm256_mul_pd(b, lo));
        a2h = _mm256_add_pd(a2h, _mm256_mul_pd(b, hi));
        b = _mm256_broadcast_sd(row + i + 3);
        a3l = _mm256_add_pd(a3l, _mm256_mul_pd(b, lo));
        a3h = _mm256_add_pd(a3h, _mm256_mul_pd(b, hi));
    }
    _mm256_storeu_pd(g0, a0l);
    _mm256_storeu_pd(g0 + 4, a0h);
    _mm256_storeu_pd(g1, a1l);
    _mm256_storeu_pd(g1 + 4, a1h);
    _mm256_storeu_pd(g2, a2l);
    _mm256_storeu_pd(g2 + 4, a2h);
    _mm256_storeu_pd(g3, a3l);
    _mm256_storeu_pd(g3 + 4, a3h);
}

// The 4 x 4 edge tile.
inline void gram_tile_4x4(const double* x, std::size_t rows, std::size_t m, std::size_t i,
                          std::size_t j, double* g) noexcept {
    double* g0 = g + i * m + j;
    __m256d a0 = _mm256_loadu_pd(g0);
    __m256d a1 = _mm256_loadu_pd(g0 + m);
    __m256d a2 = _mm256_loadu_pd(g0 + 2 * m);
    __m256d a3 = _mm256_loadu_pd(g0 + 3 * m);
    for (std::size_t r = 0; r < rows; ++r) {
        const double* row = x + r * m;
        const __m256d v = _mm256_loadu_pd(row + j);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_broadcast_sd(row + i), v));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_broadcast_sd(row + i + 1), v));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_broadcast_sd(row + i + 2), v));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_broadcast_sd(row + i + 3), v));
    }
    _mm256_storeu_pd(g0, a0);
    _mm256_storeu_pd(g0 + m, a1);
    _mm256_storeu_pd(g0 + 2 * m, a2);
    _mm256_storeu_pd(g0 + 3 * m, a3);
}

// One scalar element, the rows in order.
inline void gram_element(const double* x, std::size_t rows, std::size_t m, std::size_t i,
                         std::size_t j, double* g) noexcept {
    double acc = g[i * m + j];
    for (std::size_t r = 0; r < rows; ++r) acc += x[r * m + i] * x[r * m + j];
    g[i * m + j] = acc;
}
}  // namespace detail

// Row bands of four from the diagonal: 4 x 8 tiles, then a 4 x 4 tile and
// scalar columns at the right edge; the last m % 4 rows are scalar.
inline void gram_upper(const double* x, std::size_t rows, std::size_t m, double* g) noexcept {
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
        std::size_t j = i;
        for (; j + 8 <= m; j += 8) detail::gram_tile_4x8(x, rows, m, i, j, g);
        if (j + 4 <= m) {
            detail::gram_tile_4x4(x, rows, m, i, j, g);
            j += 4;
        }
        for (; j < m; ++j) {
            for (std::size_t k = i; k < i + 4; ++k) detail::gram_element(x, rows, m, k, j, g);
        }
    }
    for (; i < m; ++i) {
        for (std::size_t j = i; j < m; ++j) detail::gram_element(x, rows, m, i, j, g);
    }
}

// ---------------------------------------------------------------------------
// NEON path: lanes {0,1} and {2,3} live in two 128-bit registers, combined
// in the same fixed order as the other paths.
// ---------------------------------------------------------------------------
#elif defined(NETDIAG_SIMD_NEON)

inline double dot(const double* a, const double* b, std::size_t n) noexcept {
    float64x2_t acc01 = vdupq_n_f64(0.0);
    float64x2_t acc23 = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
        acc23 = vaddq_f64(acc23, vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
    }
    double tail = 0.0;
    for (; i < n; ++i) tail += a[i] * b[i];
    const double s01 = vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1);
    const double s23 = vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1);
    return (s01 + s23) + tail;
}

inline void dot3(const double* a, const double* b, std::size_t n, double& aa, double& bb,
                 double& ab) noexcept {
    float64x2_t aa01 = vdupq_n_f64(0.0), aa23 = vdupq_n_f64(0.0);
    float64x2_t bb01 = vdupq_n_f64(0.0), bb23 = vdupq_n_f64(0.0);
    float64x2_t ab01 = vdupq_n_f64(0.0), ab23 = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float64x2_t x01 = vld1q_f64(a + i);
        const float64x2_t x23 = vld1q_f64(a + i + 2);
        const float64x2_t y01 = vld1q_f64(b + i);
        const float64x2_t y23 = vld1q_f64(b + i + 2);
        aa01 = vaddq_f64(aa01, vmulq_f64(x01, x01));
        aa23 = vaddq_f64(aa23, vmulq_f64(x23, x23));
        bb01 = vaddq_f64(bb01, vmulq_f64(y01, y01));
        bb23 = vaddq_f64(bb23, vmulq_f64(y23, y23));
        ab01 = vaddq_f64(ab01, vmulq_f64(x01, y01));
        ab23 = vaddq_f64(ab23, vmulq_f64(x23, y23));
    }
    double ta = 0.0, tb = 0.0, tc = 0.0;
    for (; i < n; ++i) {
        ta += a[i] * a[i];
        tb += b[i] * b[i];
        tc += a[i] * b[i];
    }
    const auto lane_sum = [](float64x2_t v01, float64x2_t v23) {
        const double s01 = vgetq_lane_f64(v01, 0) + vgetq_lane_f64(v01, 1);
        const double s23 = vgetq_lane_f64(v23, 0) + vgetq_lane_f64(v23, 1);
        return s01 + s23;
    };
    aa = lane_sum(aa01, aa23) + ta;
    bb = lane_sum(bb01, bb23) + tb;
    ab = lane_sum(ab01, ab23) + tc;
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept {
    const float64x2_t va = vdupq_n_f64(alpha);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vmulq_f64(va, vld1q_f64(x + i))));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
}

inline void rotate_pair(double* x, double* y, std::size_t n, double c, double s) noexcept {
    const float64x2_t vc = vdupq_n_f64(c);
    const float64x2_t vs = vdupq_n_f64(s);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const float64x2_t xi = vld1q_f64(x + i);
        const float64x2_t yi = vld1q_f64(y + i);
        vst1q_f64(x + i, vsubq_f64(vmulq_f64(vc, xi), vmulq_f64(vs, yi)));
        vst1q_f64(y + i, vaddq_f64(vmulq_f64(vs, xi), vmulq_f64(vc, yi)));
    }
    for (; i < n; ++i) {
        const double xi = x[i];
        const double yi = y[i];
        x[i] = c * xi - s * yi;
        y[i] = s * xi + c * yi;
    }
}

// The Gram tile has no NEON form yet: the scalar loop computes its bits.
using fallback::gram_upper;

// ---------------------------------------------------------------------------
// Scalar build: the fallback is the primary path.
// ---------------------------------------------------------------------------
#else

using fallback::axpy;
using fallback::dot;
using fallback::dot3;
using fallback::gram_upper;
using fallback::rotate_pair;

#endif

}  // namespace netdiag::simd
