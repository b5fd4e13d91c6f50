// Normal/anomalous subspace separation (Section 4.3).
//
// The paper's rule: walk the principal axes in variance order; the first
// axis whose temporal projection u_i contains a deviation of more than
// three standard deviations from its mean sends that axis -- and all later
// ones -- to the anomalous subspace. Everything before it is normal.
//
// The walk exists once. It asks for u_i only when it reaches axis i, so
// served fits (subspace_model::fit) project lazily and usually stop after
// two or three axes, while the offline overload reads the projections
// fit_pca already computed.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "linalg/vector_ops.h"
#include "subspace/pca.h"

namespace netdiag {

struct separation_config {
    double k_sigma = 3.0;                    // the "3" in the 3-sigma rule
    std::size_t min_normal_axes = 1;         // never let the normal space vanish
    std::optional<std::size_t> fixed_rank;   // bypass the rule entirely (ablations)

    // Throws std::invalid_argument unless k_sigma is finite and positive.
    void validate() const;
};

// Number of leading principal axes assigned to the normal subspace S, for
// a model of the given dimension. projection(i) returns u_i; the walk
// calls it for i = 0, 1, ... and stops at the first axis with an
// excursion (never, under fixed_rank). Always at least
// min(min_normal_axes, dimension) and at most dimension.
std::size_t separate_normal_rank(std::size_t dimension, const separation_config& cfg,
                                 const std::function<vec(std::size_t)>& projection);

// The same walk over the projections fit_pca stored in the model. Throws
// std::invalid_argument when the walk needs projections the model does
// not carry (a served model's pca()).
std::size_t separate_normal_rank(const pca_model& model, const separation_config& cfg = {});

}  // namespace netdiag
