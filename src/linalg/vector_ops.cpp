#include "linalg/vector_ops.h"

#include <cmath>
#include <stdexcept>

#include "linalg/error.h"

namespace netdiag {

namespace {

void require_same_size(std::span<const double> a, std::span<const double> b, const char* who) {
    if (a.size() != b.size()) {
        throw std::invalid_argument(std::string(who) + ": size mismatch");
    }
}

}  // namespace

double dot(std::span<const double> a, std::span<const double> b) {
    require_same_size(a, b, "dot");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
    return acc;
}

double norm(std::span<const double> a) { return std::sqrt(norm_squared(a)); }

double norm_squared(std::span<const double> a) {
    double acc = 0.0;
    for (double v : a) acc += v * v;
    return acc;
}

double sum(std::span<const double> a) {
    double acc = 0.0;
    for (double v : a) acc += v;
    return acc;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
    require_same_size(x, y, "axpy");
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::span<double> x, double alpha) {
    for (double& v : x) v *= alpha;
}

vec add(std::span<const double> a, std::span<const double> b) {
    require_same_size(a, b, "add");
    vec out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
    return out;
}

vec subtract(std::span<const double> a, std::span<const double> b) {
    require_same_size(a, b, "subtract");
    vec out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
    return out;
}

vec scaled(std::span<const double> a, double alpha) {
    vec out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * alpha;
    return out;
}

vec normalized(std::span<const double> a) {
    const double n = norm(a);
    if (n == 0.0) throw numerical_error("normalized: zero vector has no direction");
    return scaled(a, 1.0 / n);
}

bool approx_equal(std::span<const double> a, std::span<const double> b, double tol) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::abs(a[i] - b[i]) > tol) return false;
    }
    return true;
}

bool all_finite(std::span<const double> a) {
    for (const double v : a) {
        if (!std::isfinite(v)) return false;
    }
    return true;
}

}  // namespace netdiag
