#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "engine/simd.h"
#include "linalg/error.h"
#include "linalg/ops.h"
#include "linalg/vector_ops.h"

namespace netdiag {

namespace {

constexpr int k_max_sweeps = 60;

// Width of the fixed column blocks the (alpha, beta, gamma) moments are
// accumulated over (numerical contract: changing it moves results within
// rounding).
constexpr std::size_t k_svd_moment_block = 512;

// One-sided Jacobi, cache-blocked and vectorized. The matrix arrives
// transposed: wt is m x t with row j holding column j of the original tall
// matrix, and vt is m x m with row j holding column j of the accumulated
// rotation matrix. That layout makes every column moment a contiguous
// simd::dot3 and every rotation a contiguous simd::rotate_pair — in the
// row-major original, column p and column q only ever met one cache line
// at a time.
//
// Pairs are visited round-robin (the circle method): each round pairs
// every column exactly once with all pairs disjoint, and M - 1 rounds
// visit every unordered pair. The schedule fixes the rotation order, and
// with it every bit of the result.
//
// The (alpha, beta, gamma) moments are accumulated over fixed column
// blocks of width k_svd_moment_block combined in block order (and in
// fixed 4-lane order within a block -- see engine/simd.h), so the
// reassociation pattern is a function of the problem shape only.
void jacobi_orthogonalize_cols(matrix& wt, matrix& vt) {
    const std::size_t m = wt.rows();
    if (m < 2) return;
    const std::size_t t = wt.cols();
    const double eps = 1e-15;

    const std::size_t blocks = (t + k_svd_moment_block - 1) / k_svd_moment_block;

    // Round-robin schedule: M players (a phantom "bye" pads odd m), player
    // 0 fixed, the rest rotating one slot per round. M - 1 rounds visit
    // every unordered pair exactly once.
    const std::size_t M = (m % 2 == 0) ? m : m + 1;
    std::vector<std::size_t> players(M);
    std::iota(players.begin(), players.end(), std::size_t{0});

    for (int sweep = 0; sweep < k_max_sweeps; ++sweep) {
        bool converged = true;
        for (std::size_t round = 0; round + 1 < M; ++round) {
            for (std::size_t i = 0; i < M / 2; ++i) {
                std::size_t p = players[i];
                std::size_t q = players[M - 1 - i];
                if (p >= m || q >= m) continue;  // the bye sits this round out
                if (p > q) std::swap(p, q);

                const double* wp = wt.row(p).data();
                const double* wq = wt.row(q).data();
                double alpha = 0.0, beta = 0.0, gamma = 0.0;
                for (std::size_t b = 0; b < blocks; ++b) {
                    const std::size_t lo = b * k_svd_moment_block;
                    const std::size_t len = std::min(t, lo + k_svd_moment_block) - lo;
                    double a, bb, g;
                    simd::dot3(wp + lo, wq + lo, len, a, bb, g);
                    alpha += a;
                    beta += bb;
                    gamma += g;
                }
                if (std::abs(gamma) <= eps * std::sqrt(alpha * beta) || gamma == 0.0) continue;
                converged = false;

                const double zeta = (beta - alpha) / (2.0 * gamma);
                const double sign = zeta >= 0.0 ? 1.0 : -1.0;
                const double tan = sign / (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
                const double cos = 1.0 / std::sqrt(1.0 + tan * tan);
                const double sin = cos * tan;

                simd::rotate_pair(wt.row(p).data(), wt.row(q).data(), t, cos, sin);
                simd::rotate_pair(vt.row(p).data(), vt.row(q).data(), m, cos, sin);
            }

            // Advance the schedule: slot 0 is fixed, slots 1..M-1 rotate.
            std::size_t carry = players[M - 1];
            for (std::size_t i = M - 1; i > 1; --i) players[i] = players[i - 1];
            players[1] = carry;
        }
        if (converged) return;
    }
    throw numerical_error("svd: one-sided Jacobi did not converge");
}

// Replace any (near-)zero columns of u with unit vectors orthogonal to the
// existing columns, so u always has a full orthonormal column set.
void complete_orthonormal_columns(matrix& u, const std::vector<bool>& is_zero) {
    const std::size_t t = u.rows();
    const std::size_t k = u.cols();
    for (std::size_t j = 0; j < k; ++j) {
        if (!is_zero[j]) continue;
        // Try coordinate vectors until one survives Gram-Schmidt.
        for (std::size_t cand = 0; cand < t; ++cand) {
            vec e(t, 0.0);
            e[cand] = 1.0;
            for (std::size_t c = 0; c < k; ++c) {
                if (c == j) continue;
                const auto col = u.column(c);
                axpy(-dot(e, col), col, e);
            }
            const double n = norm(e);
            if (n > 1e-6) {
                scale(e, 1.0 / n);
                u.set_column(j, e);
                break;
            }
        }
    }
}

svd_result svd_tall(const matrix& a) {
    const std::size_t t = a.rows();
    const std::size_t m = a.cols();

    // Column-contiguous working copies (see jacobi_orthogonalize_cols).
    matrix wt(m, t);
    for (std::size_t r = 0; r < t; ++r) {
        const auto arow = a.row(r);
        for (std::size_t j = 0; j < m; ++j) wt(j, r) = arow[j];
    }
    matrix vt = matrix::identity(m);
    jacobi_orthogonalize_cols(wt, vt);

    // Singular values are the norms of the rotated columns (= wt rows);
    // normalizing a row in place turns it into the matching column of u.
    std::vector<double> s(m);
    std::vector<bool> zero_col(m, false);
    double smax = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
        const double* wj = wt.row(j).data();
        s[j] = std::sqrt(simd::dot(wj, wj, t));
        smax = std::max(smax, s[j]);
    }
    for (std::size_t j = 0; j < m; ++j) {
        if (s[j] <= 1e-14 * std::max(smax, 1e-300)) {
            s[j] = 0.0;
            zero_col[j] = true;
            const auto wj = wt.row(j);
            std::fill(wj.begin(), wj.end(), 0.0);
            continue;
        }
        const auto wj = wt.row(j);
        for (std::size_t r = 0; r < t; ++r) wj[r] /= s[j];
    }

    // Order by descending singular value.
    std::vector<std::size_t> order(m);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) { return s[x] > s[y]; });

    svd_result out;
    out.s.resize(m);
    out.u.assign(t, m);
    out.v.assign(m, m);
    std::vector<bool> zero_sorted(m, false);
    for (std::size_t j = 0; j < m; ++j) {
        out.s[j] = s[order[j]];
        zero_sorted[j] = zero_col[order[j]];
        const double* uj = wt.row(order[j]).data();
        for (std::size_t r = 0; r < t; ++r) out.u(r, j) = uj[r];
        const double* vj = vt.row(order[j]).data();
        for (std::size_t r = 0; r < m; ++r) out.v(r, j) = vj[r];
    }
    complete_orthonormal_columns(out.u, zero_sorted);
    return out;
}

}  // namespace

svd_result svd(const matrix& a) {
    if (a.empty()) return {};
    if (a.rows() >= a.cols()) return svd_tall(a);
    // Wide matrix: factor the transpose and swap the roles of u and v.
    svd_result st = svd_tall(transpose(a));
    return {std::move(st.v), std::move(st.s), std::move(st.u)};
}

}  // namespace netdiag
