// Quantification step (Section 5.3): estimate the number of bytes in the
// identified anomaly.
//
// The anomalous link traffic is y' = y - y*_i = theta_i f^_i; summing it
// over links and normalizing by how many links the flow crosses gives the
// byte estimate  A-bar_i^T y', with A-bar the routing matrix normalized to
// unit column sums.
//
// A-bar is never stored: A-bar_i = theta_i ||A_i|| / sum(A_i), so the
// quantifier reads the shared routing terms (subspace/identification.h),
// A's per-flow runs, and holds no matrix of its own.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "subspace/identification.h"

namespace netdiag {

class quantifier {
public:
    // Reads the shared routing terms. Throws std::invalid_argument when
    // terms is null.
    explicit quantifier(std::shared_ptr<const routing_terms> terms);

    // Builds the routing terms from a on each call (offline callers).
    // Throws std::invalid_argument on an empty routing matrix.
    explicit quantifier(const matrix& a);

    // Bytes attributed to `flow` given the identified anomaly magnitude
    // f^ along theta_flow: f^ ||A_i|| / sum(A_i). Signed: negative for
    // traffic drops. Zero for a flow that crosses no links.
    double estimate_bytes(std::size_t flow, double magnitude) const;

    // General form: A-bar_flow^T y_prime for an explicit anomalous link
    // traffic vector, computed as (theta_flow^T y_prime) ||A_i|| / sum(A_i)
    // with a sparse dot over the flow's path. Zero for a flow that crosses
    // no links.
    double estimate_bytes_from_link_traffic(std::size_t flow,
                                            std::span<const double> y_prime) const;

private:
    std::shared_ptr<const routing_terms> terms_;
};

}  // namespace netdiag
