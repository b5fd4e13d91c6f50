// Column mean-centering. PCA requires zero-mean columns so the principal
// axes capture variance rather than differences in mean link utilization
// (Section 4.2).
#pragma once

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

// Applies stored means to a fresh measurement vector (for online use).
vec center_with(std::span<const double> y, std::span<const double> means);

}  // namespace netdiag
