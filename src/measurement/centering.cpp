#include "measurement/centering.h"

#include <stdexcept>

namespace netdiag {

namespace {

// The means accumulate row by row (axpy), scale by 1/t, and one pass
// writes each centered row: the arithmetic every fit's centering runs.
template <class Rows>
centering_result center_rows(const Rows& y) {
    const std::size_t t = y.rows();
    const std::size_t m = t == 0 ? 0 : y.row(0).size();
    if (t == 0 || m == 0) throw std::invalid_argument("center_columns: empty matrix");
    centering_result out{matrix(t, m), vec(m, 0.0)};
    for (std::size_t r = 0; r < t; ++r) axpy(1.0, y.row(r), out.column_means);
    scale(out.column_means, 1.0 / static_cast<double>(t));
    for (std::size_t r = 0; r < t; ++r) {
        const auto in = y.row(r);
        const auto row = out.centered.row(r);
        for (std::size_t c = 0; c < m; ++c) row[c] = in[c] - out.column_means[c];
    }
    return out;
}

}  // namespace

centering_result center_columns(const matrix& y) { return center_rows(y); }

centering_result center_columns(const window_view& rows) { return center_rows(rows); }

vec center_with(std::span<const double> y, std::span<const double> means) {
    return subtract(y, means);
}

}  // namespace netdiag
