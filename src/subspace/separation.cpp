#include "subspace/separation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.h"

namespace netdiag {

void separation_config::validate() const {
    // Written so NaN fails too; an infinite k_sigma would send every axis
    // to the normal subspace.
    if (!(std::isfinite(k_sigma) && k_sigma > 0.0)) {
        throw std::invalid_argument("separation_config: k_sigma must be finite and positive");
    }
}

std::size_t separate_normal_rank(std::size_t dimension, const separation_config& cfg,
                                 const std::function<vec(std::size_t)>& projection) {
    cfg.validate();
    const std::size_t m = dimension;
    if (cfg.fixed_rank) return std::min(*cfg.fixed_rank, m);

    std::size_t rank = m;  // if no axis looks anomalous, everything is normal
    for (std::size_t i = 0; i < m; ++i) {
        if (!sigma_exceedances(projection(i), cfg.k_sigma).empty()) {
            rank = i;
            break;
        }
    }
    return std::clamp(rank, std::min(cfg.min_normal_axes, m), m);
}

std::size_t separate_normal_rank(const pca_model& model, const separation_config& cfg) {
    const std::size_t m = model.dimension();
    return separate_normal_rank(m, cfg, [&model, m](std::size_t i) {
        if (model.projections.cols() != m) {
            throw std::invalid_argument("separate_normal_rank: model carries no projections");
        }
        return model.projections.column(i);
    });
}

}  // namespace netdiag
