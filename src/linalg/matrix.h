// Dense row-major matrix of doubles.
//
// This is the workhorse container for the whole library: link measurement
// matrices Y (time x links), routing matrices A (links x OD flows), PCA
// eigenvector matrices, and so on. Sizes in this problem domain are modest
// (dozens of links, ~1000 timesteps), so a plain contiguous row-major layout
// with simple loops is both fast enough and easy to reason about.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace netdiag {

class matrix {
public:
    // Empty 0x0 matrix.
    matrix() = default;

    // rows x cols matrix with every element set to fill. Throws
    // std::invalid_argument when exactly one extent is zero, and
    // std::length_error, before allocating, when rows * cols overflows
    // size_t.
    matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    // Construction from a row list: matrix m{{1, 2}, {3, 4}}.
    // Throws std::invalid_argument if the rows have unequal lengths.
    matrix(std::initializer_list<std::initializer_list<double>> rows);

    static matrix identity(std::size_t n);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    std::size_t size() const noexcept { return data_.size(); }
    bool empty() const noexcept { return data_.empty(); }

    // Unchecked element access (hot paths). Use at() for checked access.
    double& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
    double operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

    // Bounds-checked element access; throws std::out_of_range.
    double& at(std::size_t r, std::size_t c);
    double at(std::size_t r, std::size_t c) const;

    // Contiguous view of row r (unchecked).
    std::span<double> row(std::size_t r) noexcept {
        return {data_.data() + r * cols_, cols_};
    }
    std::span<const double> row(std::size_t r) const noexcept {
        return {data_.data() + r * cols_, cols_};
    }

    // Copy of column c. Columns are strided, so this materializes a vector.
    std::vector<double> column(std::size_t c) const;

    void set_row(std::size_t r, std::span<const double> values);
    void set_column(std::size_t c, std::span<const double> values);

    double* data() noexcept { return data_.data(); }
    const double* data() const noexcept { return data_.data(); }

    // Reshape to rows x cols discarding contents (all elements become
    // fill). Throws like the sized constructor, leaving the shape as it
    // was.
    void assign(std::size_t rows, std::size_t cols, double fill = 0.0);

    bool operator==(const matrix& other) const = default;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

// True when a and b have identical shape and elements differ by at most tol.
bool approx_equal(const matrix& a, const matrix& b, double tol);

}  // namespace netdiag
