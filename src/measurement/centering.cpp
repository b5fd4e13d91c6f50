#include "measurement/centering.h"

#include <stdexcept>

namespace netdiag {

namespace {

// The arithmetic every fit's centering runs: the means accumulate row by
// row (axpy) and scale by 1/t, then each centered row is one subtract
// pass.
template <class Rows>
vec means_of(const Rows& y) {
    const std::size_t t = y.rows();
    const std::size_t m = t == 0 ? 0 : y.row(0).size();
    if (t == 0 || m == 0) throw std::invalid_argument("center_columns: empty matrix");
    vec means(m, 0.0);
    for (std::size_t r = 0; r < t; ++r) axpy(1.0, y.row(r), means);
    scale(means, 1.0 / static_cast<double>(t));
    return means;
}

template <class Rows>
void subtract_means(const Rows& y, std::span<const double> means, std::size_t begin,
                    std::size_t end, matrix& out) {
    for (std::size_t r = begin; r < end; ++r) {
        const auto in = y.row(r);
        const auto row = out.row(r);
        for (std::size_t c = 0; c < means.size(); ++c) row[c] = in[c] - means[c];
    }
}

template <class Rows>
centering_result center_all(const Rows& y) {
    vec means = means_of(y);
    matrix centered(y.rows(), means.size());
    subtract_means(y, means, 0, y.rows(), centered);
    return {std::move(centered), std::move(means)};
}

}  // namespace

centering_result center_columns(const matrix& y) { return center_all(y); }

centering_result center_columns(const window_view& rows) { return center_all(rows); }

vec column_means(const window_view& rows) { return means_of(rows); }

void center_rows(const window_view& rows, std::span<const double> means, std::size_t begin,
                 std::size_t end, matrix& out) {
    subtract_means(rows, means, begin, end, out);
}

vec center_with(std::span<const double> y, std::span<const double> means) {
    return subtract(y, means);
}

}  // namespace netdiag
