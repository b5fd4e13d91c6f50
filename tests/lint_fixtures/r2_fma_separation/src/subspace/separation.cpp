// Fixture: std::fma in the 3-sigma walk must trip R2 -- a refit's
// separation arithmetic is held to the kernels' contraction contract.
#include <cmath>

double deviation_sum(double acc, double x, double mean) {
    return std::fma(x - mean, x - mean, acc);
}
