// BLAS-1 style kernels over std::vector<double> / std::span<const double>.
//
// The library deliberately uses std::vector<double> as its vector type
// (Core Guidelines: prefer standard containers); these free functions supply
// the small amount of numerical vocabulary the rest of the code needs.
#pragma once

#include <span>
#include <vector>

namespace netdiag {

using vec = std::vector<double>;

// Inner product <a, b>. Throws std::invalid_argument on size mismatch.
double dot(std::span<const double> a, std::span<const double> b);

// Euclidean norm ||a||.
double norm(std::span<const double> a);

// Squared Euclidean norm ||a||^2.
double norm_squared(std::span<const double> a);

// Sum of elements.
double sum(std::span<const double> a);

// y += alpha * x (in place). Throws std::invalid_argument on size mismatch.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

// x *= alpha (in place).
void scale(std::span<double> x, double alpha);

// Element-wise a + b and a - b.
vec add(std::span<const double> a, std::span<const double> b);
vec subtract(std::span<const double> a, std::span<const double> b);

// a scaled by alpha, as a new vector.
vec scaled(std::span<const double> a, double alpha);

// Normalize a to unit Euclidean norm. Throws netdiag::numerical_error if
// ||a|| is zero (no direction to normalize).
vec normalized(std::span<const double> a);

// True when both vectors have equal length and elements within tol.
bool approx_equal(std::span<const double> a, std::span<const double> b, double tol);

// True when no element is a NaN or an infinity.
bool all_finite(std::span<const double> a);

}  // namespace netdiag
