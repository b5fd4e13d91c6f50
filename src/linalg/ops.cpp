#include "linalg/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "engine/simd.h"
#include "engine/thread_pool.h"

namespace netdiag {

matrix multiply(const matrix& a, const matrix& b) {
    if (a.cols() != b.rows()) throw std::invalid_argument("multiply: inner dimensions differ");
    matrix c(a.rows(), b.cols(), 0.0);
    // i-k-j loop order keeps the inner loop contiguous over both b and c rows.
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            if (aik == 0.0) continue;
            simd::axpy(aik, b.row(k).data(), c.row(i).data(), b.cols());
        }
    }
    return c;
}

vec multiply(const matrix& a, std::span<const double> x) {
    if (a.cols() != x.size()) throw std::invalid_argument("multiply: dimension mismatch");
    vec y(a.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) y[i] = dot(a.row(i), x);
    return y;
}

vec multiply_transposed(const matrix& a, std::span<const double> x) {
    if (a.rows() != x.size()) throw std::invalid_argument("multiply_transposed: dimension mismatch");
    vec y(a.cols(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double xi = x[i];
        if (xi == 0.0) continue;
        simd::axpy(xi, a.row(i).data(), y.data(), a.cols());
    }
    return y;
}

matrix transpose(const matrix& a) {
    matrix t(a.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
    }
    return t;
}

matrix gram(const matrix& a) {
    matrix g(a.cols(), a.cols(), 0.0);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const auto row = a.row(r);
        for (std::size_t i = 0; i < a.cols(); ++i) {
            const double ri = row[i];
            if (ri == 0.0) continue;
            simd::axpy(ri, row.data() + i, g.row(i).data() + i, a.cols() - i);
        }
    }
    for (std::size_t i = 0; i < a.cols(); ++i) {
        for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
    }
    return g;
}

matrix outer(std::span<const double> a, std::span<const double> b) {
    matrix m(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = 0; j < b.size(); ++j) m(i, j) = a[i] * b[j];
    }
    return m;
}

double trace(const matrix& a) {
    if (a.rows() != a.cols()) throw std::invalid_argument("trace: matrix not square");
    double t = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) t += a(i, i);
    return t;
}

double frobenius_norm(const matrix& a) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) acc += a.data()[i] * a.data()[i];
    return std::sqrt(acc);
}

matrix column_covariance(const matrix& y) {
    if (y.rows() < 2) throw std::invalid_argument("column_covariance: need at least two rows");
    vec means(y.cols(), 0.0);
    for (std::size_t r = 0; r < y.rows(); ++r) axpy(1.0, y.row(r), means);
    scale(means, 1.0 / static_cast<double>(y.rows()));

    matrix cov(y.cols(), y.cols(), 0.0);
    vec centered(y.cols());
    for (std::size_t r = 0; r < y.rows(); ++r) {
        const auto row = y.row(r);
        for (std::size_t j = 0; j < y.cols(); ++j) centered[j] = row[j] - means[j];
        for (std::size_t i = 0; i < y.cols(); ++i) {
            const double ci = centered[i];
            if (ci == 0.0) continue;
            simd::axpy(ci, centered.data() + i, cov.row(i).data() + i, y.cols() - i);
        }
    }
    const double scale_factor = 1.0 / static_cast<double>(y.rows() - 1);
    for (std::size_t i = 0; i < y.cols(); ++i) {
        for (std::size_t j = i; j < y.cols(); ++j) {
            cov(i, j) *= scale_factor;
            cov(j, i) = cov(i, j);
        }
    }
    return cov;
}

// Block shape of the covariance Gram: at least 256 rows per partial
// block, at most 64 blocks (each partial is m x m, so the cap bounds
// temporary memory). Both are part of the numerical contract: the block
// layout is a function of the input shape only -- never the thread count
// -- so the reduction order is fixed, and changing either value moves
// fit results within rounding.
constexpr std::size_t k_covariance_min_block_rows = 256;
constexpr std::size_t k_covariance_max_blocks = 64;

matrix parallel_centered_covariance(const matrix& centered, thread_pool* pool) {
    if (centered.rows() < 2) {
        throw std::invalid_argument("parallel_centered_covariance: need at least two rows");
    }
    const std::size_t t = centered.rows();
    const std::size_t m = centered.cols();

    const std::size_t row_block = std::max(
        k_covariance_min_block_rows, (t + k_covariance_max_blocks - 1) / k_covariance_max_blocks);
    const std::size_t blocks = (t + row_block - 1) / row_block;
    std::vector<matrix> partial(blocks);

    // Each block's Gram runs in register tiles that add the block's rows
    // in order, so every upper-triangle element sees the same products in
    // the same order as a plain row loop.
    const auto accumulate_block = [&](std::size_t b) {
        const std::size_t row_begin = b * row_block;
        const std::size_t row_end = std::min(t, row_begin + row_block);
        matrix& acc = partial[b];
        acc.assign(m, m, 0.0);
        simd::gram_upper(centered.row(row_begin).data(), row_end - row_begin, m, acc.data());
    };

    if (pool != nullptr && blocks > 1) {
        parallel_for(*pool, 0, blocks, accumulate_block);
    } else {
        for (std::size_t b = 0; b < blocks; ++b) accumulate_block(b);
    }

    // Serial reduction in block order: deterministic for every pool size.
    matrix cov(m, m, 0.0);
    for (std::size_t b = 0; b < blocks; ++b) {
        const matrix& acc = partial[b];
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = i; j < m; ++j) cov(i, j) += acc(i, j);
        }
    }
    const double scale_factor = 1.0 / static_cast<double>(t - 1);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = i; j < m; ++j) {
            cov(i, j) *= scale_factor;
            cov(j, i) = cov(i, j);
        }
    }
    return cov;
}

double max_off_diagonal(const matrix& a) {
    if (a.rows() != a.cols()) throw std::invalid_argument("max_off_diagonal: matrix not square");
    double best = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            if (i != j) best = std::max(best, std::abs(a(i, j)));
        }
    }
    return best;
}

}  // namespace netdiag
