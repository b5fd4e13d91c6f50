#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace servebench {

namespace {

// ceil(q * n) without the floating-point wobble of q * n landing a hair
// above an integer (0.99 * 1000 = 990.0000000000001).
std::size_t rank_ceil(std::size_t n, double q) {
    const double x = q * static_cast<double>(n);
    const double r = std::round(x);
    if (std::fabs(x - r) < 1e-9) return static_cast<std::size_t>(r);
    return static_cast<std::size_t>(std::ceil(x));
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) throw std::invalid_argument("percentile: empty sample");
    if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("percentile: q outside [0, 1]");
    const std::size_t n = samples.size();
    const std::size_t rank = std::max<std::size_t>(rank_ceil(n, q), 1);
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
    const std::size_t rank = std::min(rank_ceil(n, q), n);
    return n - rank;
}

std::optional<double> supported_percentile(const std::vector<double>& samples, double q) {
    if (samples.empty() || samples_beyond(samples.size(), q) < k_min_tail) return std::nullopt;
    return percentile(samples, q);
}

std::optional<tail_result> highest_supported_tail(const std::vector<double>& samples) {
    const std::size_t n = samples.size();
    if (n < 2 * k_min_tail) return std::nullopt;
    // Largest q on the 0.01 grid with n - ceil(q n) >= k_min_tail.
    double q = std::floor((1.0 - static_cast<double>(k_min_tail) / static_cast<double>(n)) *
                          100.0) /
               100.0;
    while (q > 0.0 && samples_beyond(n, q) < k_min_tail) q -= 0.01;
    if (q <= 0.0) return std::nullopt;
    return tail_result{q, percentile(samples, q)};
}

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

}  // namespace servebench
