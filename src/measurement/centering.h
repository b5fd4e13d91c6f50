// Column mean-centering. PCA requires zero-mean columns so the principal
// axes capture variance rather than differences in mean link utilization
// (Section 4.2).
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "measurement/window_ring.h"

namespace netdiag {

struct centering_result {
    matrix centered;  // same shape as the input
    vec column_means; // one mean per column
};

// Removes the column means of y. Throws std::invalid_argument on an empty
// matrix.
centering_result center_columns(const matrix& y);

// The same, bit for bit, over window rows read where they lie: the
// centered copy is the only one made.
centering_result center_columns(const window_view& rows);

// center_columns' two passes, for a caller that splits the second across
// threads: the column means of `rows` (row-order axpy, then a 1/t scale;
// throws std::invalid_argument on an empty view), and rows [begin, end)
// of `rows` minus `means`, written to the same rows of `out` (t x m).
// Running center_rows over every row gives center_columns' matrix bit
// for bit, in any order of ranges.
vec column_means(const window_view& rows);
void center_rows(const window_view& rows, std::span<const double> means, std::size_t begin,
                 std::size_t end, matrix& out);

// Applies stored means to a fresh measurement vector (for online use).
vec center_with(std::span<const double> y, std::span<const double> means);

}  // namespace netdiag
