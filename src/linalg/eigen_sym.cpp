#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "engine/simd.h"
#include "linalg/error.h"
#include "linalg/ops.h"

namespace netdiag {

namespace {

constexpr int k_max_ql_iterations = 50;
constexpr int k_max_jacobi_sweeps = 100;

void require_symmetric(const matrix& a, const char* who) {
    if (a.rows() != a.cols()) {
        throw std::invalid_argument(std::string(who) + ": matrix not square");
    }
    const double scale = std::max(1.0, frobenius_norm(a));
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = i + 1; j < a.cols(); ++j) {
            if (std::abs(a(i, j) - a(j, i)) > 1e-10 * scale) {
                throw std::invalid_argument(std::string(who) + ": matrix not symmetric");
            }
        }
    }
}

// Rows j .. j + 3 of tred2's symmetric mat-vec (e = A d over the leading
// i x i block, A's upper triangle held in rows of w), so the four rows'
// dot chains run side by side. Each row's dot g adds its terms in k
// order, and each e[k] takes row j's term before row j + 1's: the head
// triangle feeds rows j + 1 .. j + 3 the e[k] the one-row loop would have
// left them. Same operations in the same order, so the same bits.
void symmetric_matvec_rows4(matrix& w, std::size_t i, std::size_t j, const std::vector<double>& d,
                            std::vector<double>& e) {
    const double f0 = d[j];
    const double f1 = d[j + 1];
    const double f2 = d[j + 2];
    const double f3 = d[j + 3];
    w(i, j) = f0;
    w(i, j + 1) = f1;
    w(i, j + 2) = f2;
    w(i, j + 3) = f3;
    const double* w0 = w.row(j).data();
    const double* w1 = w.row(j + 1).data();
    const double* w2 = w.row(j + 2).data();
    const double* w3 = w.row(j + 3).data();

    double g0 = e[j] + w0[j] * f0;
    g0 += w0[j + 1] * d[j + 1];
    e[j + 1] += w0[j + 1] * f0;
    double g1 = e[j + 1] + w1[j + 1] * f1;
    g0 += w0[j + 2] * d[j + 2];
    e[j + 2] += w0[j + 2] * f0;
    g1 += w1[j + 2] * d[j + 2];
    e[j + 2] += w1[j + 2] * f1;
    double g2 = e[j + 2] + w2[j + 2] * f2;
    g0 += w0[j + 3] * d[j + 3];
    e[j + 3] += w0[j + 3] * f0;
    g1 += w1[j + 3] * d[j + 3];
    e[j + 3] += w1[j + 3] * f1;
    g2 += w2[j + 3] * d[j + 3];
    e[j + 3] += w2[j + 3] * f2;
    double g3 = e[j + 3] + w3[j + 3] * f3;

    for (std::size_t k = j + 4; k < i; ++k) {
        const double dk = d[k];
        g0 += w0[k] * dk;
        g1 += w1[k] * dk;
        g2 += w2[k] * dk;
        g3 += w3[k] * dk;
        e[k] = e[k] + w0[k] * f0 + w1[k] * f1 + w2[k] * f2 + w3[k] * f3;
    }
    e[j] = g0;
    e[j + 1] = g1;
    e[j + 2] = g2;
    e[j + 3] = g3;
}

// Householder reduction of a symmetric matrix to tridiagonal form: the
// classic tred2 recurrence, held transposed. w starts as a^T, and every
// element the column-major recurrence reads as v(r, c) lives at w(c, r),
// so the same operations run in the same order over contiguous rows and
// every bit matches. On return d[0..n) holds scratch except d[k] = h_k for
// k >= 1, e[1..n) holds the sub-diagonal, row k of w holds reflector k in
// its first k entries (the identity when h_k == 0) and w(k, k) holds the
// diagonal.
void reduce_to_tridiagonal(matrix& w, std::vector<double>& d, std::vector<double>& e) {
    const std::size_t n = w.rows();
    for (std::size_t j = 0; j < n; ++j) d[j] = w(j, n - 1);

    for (std::size_t i = n - 1; i > 0; --i) {
        double scale = 0.0;
        double h = 0.0;
        for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
        if (scale == 0.0) {
            e[i] = d[i - 1];
            for (std::size_t j = 0; j < i; ++j) {
                d[j] = w(j, i - 1);
                w(j, i) = 0.0;
                w(i, j) = 0.0;
            }
        } else {
            for (std::size_t k = 0; k < i; ++k) {
                d[k] /= scale;
                h += d[k] * d[k];
            }
            double f = d[i - 1];
            double g = std::sqrt(h);
            if (f > 0.0) g = -g;
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;

            std::size_t j = 0;
            for (; j + 4 <= i; j += 4) symmetric_matvec_rows4(w, i, j, d, e);
            for (; j < i; ++j) {
                f = d[j];
                w(i, j) = f;
                const double* wj = w.row(j).data();
                g = e[j] + wj[j] * f;
                for (std::size_t k = j + 1; k < i; ++k) {
                    g += wj[k] * d[k];
                    e[k] += wj[k] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for (std::size_t j = 0; j < i; ++j) {
                e[j] /= h;
                f += e[j] * d[j];
            }
            const double hh = f / (h + h);
            for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
            for (std::size_t j = 0; j < i; ++j) {
                f = d[j];
                g = e[j];
                double* wj = w.row(j).data();
                for (std::size_t k = j; k < i; ++k) wj[k] -= f * e[k] + g * d[k];
                d[j] = w(j, i - 1);
                w(j, i) = 0.0;
            }
        }
        d[i] = h;
    }
}

// Accumulates the reflectors reduce_to_tridiagonal left in w into the
// transposed orthogonal transform (row j of w = column j of Q), and moves
// the diagonal into d. tred2's accumulation, held transposed like the
// reduction.
void accumulate_reflectors(matrix& w, std::vector<double>& d, std::vector<double>& e) {
    const std::size_t n = w.rows();
    for (std::size_t i = 0; i + 1 < n; ++i) {
        w(i, n - 1) = w(i, i);
        w(i, i) = 1.0;
        const double h = d[i + 1];
        double* u = w.row(i + 1).data();
        if (h != 0.0) {
            for (std::size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
            for (std::size_t j = 0; j <= i; ++j) {
                double* wj = w.row(j).data();
                double g = 0.0;
                for (std::size_t k = 0; k <= i; ++k) g += u[k] * wj[k];
                for (std::size_t k = 0; k <= i; ++k) wj[k] -= g * d[k];
            }
        }
        for (std::size_t k = 0; k <= i; ++k) u[k] = 0.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
        d[j] = w(j, n - 1);
        w(j, n - 1) = 0.0;
    }
    w(n - 1, n - 1) = 1.0;
    e[0] = 0.0;
}

// Applies a batch of Givens rotations to the transposed eigenvector
// accumulator vt (row j of vt = column j of v). Rotation j acts on vt rows
// (i, i + 1) with i = hi - 1 - j, in that order, as one contiguous
// simd::rotate_pair per rotation. Each matrix element sees the same
// rotations in the same order as the classic per-row interleaved loop, so
// the arithmetic is bit-identical to it.
void apply_rotation_batch(matrix& vt, std::size_t hi, const std::vector<double>& rot_c,
                          const std::vector<double>& rot_s) {
    const std::size_t n = vt.cols();
    for (std::size_t j = 0; j < rot_c.size(); ++j) {
        const std::size_t i = hi - 1 - j;
        simd::rotate_pair(vt.row(i).data(), vt.row(i + 1).data(), n, rot_c[j], rot_s[j]);
    }
}

// Implicit-shift QL iteration on the tridiagonal (d, e): the classic tql2
// recurrence. Each iteration's rotation sequence depends only on (d, e),
// and the recurrence never reads the eigenvectors, so it hands every
// iteration's batch to on_batch(hi, rot_c, rot_s) -- which applies it to
// the transposed eigenvector matrix or records it -- and the eigenvalues
// come out the same either way.
template <class OnBatch>
void ql_iterate(std::vector<double>& d, std::vector<double>& e, OnBatch&& on_batch) {
    const std::size_t n = d.size();
    for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
    e[n - 1] = 0.0;

    double f = 0.0;
    double tst1 = 0.0;
    const double eps = std::numeric_limits<double>::epsilon();
    std::vector<double> rot_c;
    std::vector<double> rot_s;

    for (std::size_t l = 0; l < n; ++l) {
        tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
        std::size_t m = l;
        while (m < n && std::abs(e[m]) > eps * tst1) ++m;

        if (m > l) {
            int iter = 0;
            do {
                if (++iter > k_max_ql_iterations) {
                    throw numerical_error("sym_eigen: QL iteration did not converge");
                }
                double g = d[l];
                double p = (d[l + 1] - g) / (2.0 * e[l]);
                double r = std::hypot(p, 1.0);
                if (p < 0.0) r = -r;
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                const double dl1 = d[l + 1];
                double h = g - d[l];
                for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
                f += h;

                p = d[m];
                double c = 1.0;
                double c2 = c;
                double c3 = c;
                const double el1 = e[l + 1];
                double s = 0.0;
                double s2 = 0.0;
                rot_c.clear();
                rot_s.clear();
                for (std::size_t i = m; i-- > l;) {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = std::hypot(p, e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    rot_c.push_back(c);
                    rot_s.push_back(s);
                }
                on_batch(m, rot_c, rot_s);
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
            } while (std::abs(e[l]) > eps * tst1);
        }
        d[l] += f;
        e[l] = 0.0;
    }
}

// Indices of d in descending order of value (stable).
std::vector<std::size_t> descending_order(const std::vector<double>& d) {
    std::vector<std::size_t> order(d.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return d[a] > d[b]; });
    return order;
}

// Sort eigenpairs by descending eigenvalue; row j of vt is the eigenvector
// of d[j], and column j of the result pairs with eigenvalues[j].
sym_eigen_result sorted_descending(const std::vector<double>& d, const matrix& vt) {
    const std::size_t n = d.size();
    const std::vector<std::size_t> order = descending_order(d);
    sym_eigen_result out;
    out.eigenvalues.resize(n);
    out.eigenvectors.assign(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        out.eigenvalues[j] = d[order[j]];
        const auto v = vt.row(order[j]);
        for (std::size_t i = 0; i < n; ++i) out.eigenvectors(i, j) = v[i];
    }
    return out;
}

}  // namespace

sym_eigen_result sym_eigen(const matrix& a) {
    require_symmetric(a, "sym_eigen");
    const std::size_t n = a.rows();
    if (n == 0) return {};
    if (n == 1) return {{a(0, 0)}, matrix::identity(1)};

    // The transform comes out transposed, which is the layout QL wants:
    // each Givens rotation is a contiguous pair-of-rows update.
    matrix vt = transpose(a);
    std::vector<double> d(n, 0.0);
    std::vector<double> e(n, 0.0);
    reduce_to_tridiagonal(vt, d, e);
    accumulate_reflectors(vt, d, e);
    ql_iterate(d, e, [&vt](std::size_t hi, const std::vector<double>& c,
                           const std::vector<double>& s) { apply_rotation_batch(vt, hi, c, s); });
    return sorted_descending(d, vt);
}

sym_spectrum::sym_spectrum(const matrix& a) {
    require_symmetric(a, "sym_spectrum");
    const std::size_t n = a.rows();
    if (n == 0) return;
    if (n == 1) {
        // sym_eigen's value as is (QL would add 0.0, turning -0.0 into +0.0).
        eigenvalues_ = {a(0, 0)};
        order_ = {0};
        return;
    }

    reflectors_ = transpose(a);
    std::vector<double> d(n, 0.0);
    std::vector<double> e(n, 0.0);
    reduce_to_tridiagonal(reflectors_, d, e);
    // What accumulate_reflectors would leave in d and e, without the
    // accumulation: the recurrence below never reads the transform.
    reflector_h_ = d;
    for (std::size_t j = 0; j < n; ++j) d[j] = reflectors_(j, j);
    e[0] = 0.0;
    ql_iterate(d, e, [this](std::size_t hi, const std::vector<double>& c,
                            const std::vector<double>& s) {
        rot_c_.insert(rot_c_.end(), c.begin(), c.end());
        rot_s_.insert(rot_s_.end(), s.begin(), s.end());
        batch_hi_.push_back(hi);
        batch_end_.push_back(rot_c_.size());
    });
    order_ = descending_order(d);
    eigenvalues_.resize(n);
    for (std::size_t j = 0; j < n; ++j) eigenvalues_[j] = d[order_[j]];
}

matrix sym_spectrum::eigenvectors(std::size_t first, std::size_t count) const {
    const std::size_t n = dimension();
    if (first > n || count > n - first) {
        throw std::out_of_range("sym_spectrum::eigenvectors: columns past the dimension");
    }
    if (count == 0) return {};
    // z_k = M_1 ... M_N e_p for QL index p: the recorded rotations, last
    // first, each transposed (sign of s flipped), on n x count rows so one
    // contiguous rotate_pair moves every requested vector at once.
    matrix z(n, count, 0.0);
    for (std::size_t k = 0; k < count; ++k) z(order_[first + k], k) = 1.0;
    for (std::size_t b = batch_hi_.size(); b-- > 0;) {
        const std::size_t begin = b == 0 ? 0 : batch_end_[b - 1];
        for (std::size_t idx = batch_end_[b]; idx-- > begin;) {
            const std::size_t i = batch_hi_[b] - 1 - (idx - begin);
            simd::rotate_pair(z.row(i).data(), z.row(i + 1).data(), count, rot_c_[idx],
                              -rot_s_[idx]);
        }
    }

    // Q z_k with Q = H_{n-1} ... H_1: reflector 1 first, with the same
    // arithmetic accumulate_reflectors applies to each column of Q.
    matrix zt = transpose(z);
    std::vector<double> scaled(n, 0.0);
    for (std::size_t r = 1; r < n; ++r) {
        const double h = reflector_h_[r];
        if (h == 0.0) continue;
        const double* u = reflectors_.row(r).data();
        for (std::size_t i = 0; i < r; ++i) scaled[i] = u[i] / h;
        for (std::size_t k = 0; k < count; ++k) {
            double* v = zt.row(k).data();
            double g = 0.0;
            for (std::size_t i = 0; i < r; ++i) g += u[i] * v[i];
            for (std::size_t i = 0; i < r; ++i) v[i] -= g * scaled[i];
        }
    }
    return transpose(zt);
}

sym_eigen_result sym_eigen_jacobi(const matrix& a) {
    require_symmetric(a, "sym_eigen_jacobi");
    const std::size_t n = a.rows();
    if (n == 0) return {};

    matrix w = a;
    // Rotations are accumulated into the transpose (row j = eigenvector j)
    // so both the w update and the accumulator update run as contiguous
    // simd::rotate_pair calls; w stays symmetric bit-exactly, so reading
    // its rows where the classic loop read columns changes nothing.
    matrix vt = matrix::identity(n);
    const double total_scale = std::max(frobenius_norm(w), 1e-300);

    for (int sweep = 0; sweep < k_max_jacobi_sweeps; ++sweep) {
        double off = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) off += 2.0 * w(i, j) * w(i, j);
        }
        if (std::sqrt(off) <= 1e-14 * total_scale) {
            std::vector<double> d(n);
            for (std::size_t i = 0; i < n; ++i) d[i] = w(i, i);
            return sorted_descending(d, vt);
        }

        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = w(p, q);
                if (std::abs(apq) <= 1e-300) continue;
                const double theta = (w(q, q) - w(p, p)) / (2.0 * apq);
                const double sign = theta >= 0.0 ? 1.0 : -1.0;
                const double t = sign / (std::abs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;

                const double app = w(p, p);
                const double aqq = w(q, q);

                // Rotate rows p and q of w and vt, then re-mirror the
                // rotated entries onto columns p and q. The four entries at
                // the row intersections get closed-form values afterwards,
                // so the garbage the row rotation leaves there is never
                // read.
                simd::rotate_pair(w.row(p).data(), w.row(q).data(), n, c, s);
                simd::rotate_pair(vt.row(p).data(), vt.row(q).data(), n, c, s);
                for (std::size_t k = 0; k < n; ++k) {
                    if (k == p || k == q) continue;
                    w(k, p) = w(p, k);
                    w(k, q) = w(q, k);
                }

                w(p, p) = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                w(q, q) = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                w(p, q) = 0.0;
                w(q, p) = 0.0;
            }
        }
    }
    throw numerical_error("sym_eigen_jacobi: did not converge");
}

}  // namespace netdiag
