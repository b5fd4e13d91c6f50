// Percentile arithmetic for the serving benchmark. Every timing the
// benchmark reports is a median plus, where the sample supports it, a
// high percentile; the sample-count rule below decides when it does.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace servebench {

// Nearest-rank percentile: the smallest sample with at least q of the
// samples at or below it (q in [0, 1]). Throws std::invalid_argument on an
// empty sample or q outside [0, 1]. Takes the sample by value (sorts it).
double percentile(std::vector<double> samples, double q);

// Samples strictly above the nearest-rank q-percentile's position:
// n - ceil(q * n).
std::size_t samples_beyond(std::size_t n, double q);

// The reporting rule for a tail percentile: shown only when at least
// k_min_tail samples lie beyond it, so a p99 needs 1,000 samples.
inline constexpr std::size_t k_min_tail = 10;

// The q-percentile when samples_beyond(n, q) >= k_min_tail, else nothing.
std::optional<double> supported_percentile(const std::vector<double>& samples, double q);

// The highest percentile of the form 1 - k_min_tail / n (floored to a
// multiple of 0.01) that the sample supports, with the rank it used.
// Nothing for fewer than 2 * k_min_tail samples.
struct tail_result {
    double q = 0.0;
    double value = 0.0;
};
std::optional<tail_result> highest_supported_tail(const std::vector<double>& samples);

double mean(const std::vector<double>& samples);

}  // namespace servebench
